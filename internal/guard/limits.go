package guard

import (
	"fmt"
	"math"
)

// Limits are the pipeline's resource budgets. The zero value of every
// field means "unlimited" except MaxDepth, whose effective default is
// DefaultMaxDepth — an unbounded call hierarchy is never legitimate
// (the CIF parser rejects cycles, but the front end also accepts
// synthesised symbol tables and must terminate on its own).
//
// The budgets are enforced where the memory is actually committed:
//
//   - MaxBoxes caps geometry items accepted by the CIF parser,
//     boxes entering a scanline sweep (Counters.BoxesIn), so a lazily
//     instantiated bomb fails during the sweep, not after OOM, and
//     the grid bands one polygon or wire decomposes into (CheckBands).
//   - MaxExpandedBoxes caps the boxes materialised by the
//     pre-flattener's symbol arenas — the hierarchy-bomb guard: a
//     10-level 100x fan-out fails fast while folding arenas instead of
//     exhausting memory.
//   - MaxDepth bounds the call-hierarchy depth in the front end.
//   - MaxMemBytes is an approximate budget on retained pipeline
//     memory: arena bytes, materialised box slices and the streamed
//     ingest's published runs, plus the sweep's active lists and
//     builder elements.
type Limits struct {
	MaxBoxes         int64
	MaxExpandedBoxes int64
	MaxDepth         int
	MaxMemBytes      int64

	// MaxConcurrent caps units of work admitted concurrently (0:
	// unlimited). Unlike the other budgets it is enforced by a
	// stateful admission Gate (see NewGate) rather than a pure check,
	// because concurrency is a property of the set of in-flight work,
	// not of one request; CheckConcurrent exists for callers that
	// track their own count.
	MaxConcurrent int
}

// DefaultMaxDepth is the call-hierarchy depth applied when
// Limits.MaxDepth is zero. Real designs run a few dozen levels;
// 100,000 is far beyond any legitimate hierarchy yet still terminates
// instantly, so the default only exists to reject cycles-by-another-
// name (hierarchies deep enough to be hostile) without a config knob.
const DefaultMaxDepth = 100000

// Depth returns the effective depth bound.
func (l Limits) Depth() int {
	if l.MaxDepth > 0 {
		return l.MaxDepth
	}
	return DefaultMaxDepth
}

// BoxBytes is the approximate retained size of one materialised box
// (layer + rect + padding) used by the MaxMemBytes accounting.
const BoxBytes = 40

// CheckBoxes reports a LimitError when n exceeds the MaxBoxes budget.
func (l Limits) CheckBoxes(stage string, n int64) error {
	if l.MaxBoxes > 0 && n > l.MaxBoxes {
		return &LimitError{Stage: stage, What: "boxes", Value: n, Limit: l.MaxBoxes}
	}
	return nil
}

// CheckBands reports a LimitError when one polygon or wire would
// decompose into n grid bands (geom's ApplyBands) beyond the MaxBoxes
// or MaxMemBytes budget. Front ends check it before decomposing: the
// bands are allocated before any box reaches the sweep's own checks,
// so a few bytes of input could otherwise exhaust memory.
func (l Limits) CheckBands(stage string, n int64) error {
	if err := l.CheckBoxes(stage, n); err != nil {
		return err
	}
	return l.CheckMem(stage, min(n, math.MaxInt64/BoxBytes)*BoxBytes)
}

// CheckExpanded reports a LimitError when n materialised boxes exceed
// the MaxExpandedBoxes budget.
func (l Limits) CheckExpanded(stage string, n int64) error {
	if l.MaxExpandedBoxes > 0 && n > l.MaxExpandedBoxes {
		return &LimitError{Stage: stage, What: "expanded boxes", Value: n, Limit: l.MaxExpandedBoxes}
	}
	return nil
}

// CheckMem reports a LimitError when approximately n retained bytes
// exceed the MaxMemBytes budget.
func (l Limits) CheckMem(stage string, n int64) error {
	if l.MaxMemBytes > 0 && n > l.MaxMemBytes {
		return &LimitError{Stage: stage, What: "memory bytes", Value: n, Limit: l.MaxMemBytes}
	}
	return nil
}

// LimitError reports an exceeded resource budget.
type LimitError struct {
	Stage string
	What  string
	Value int64
	Limit int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("%s: %s limit exceeded: %d > %d", e.Stage, e.What, e.Value, e.Limit)
}
