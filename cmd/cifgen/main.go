// Command cifgen emits the repository's synthetic workloads as CIF
// text, so the extractors (and any external CIF tool) can consume
// them.
//
// Usage:
//
//	cifgen -w inverter                   the paper's Figure 3-3 inverter
//	cifgen -w four                       HEXT's Figure 2-1 four inverters
//	cifgen -w chain -n 8                 a functional 8-stage inverter chain
//	cifgen -w memory -rows 16 -cols 16   a testram-style array
//	cifgen -w array -n 1024              HEXT Table 4-1 ideal square array
//	cifgen -w mesh -n 32                 ACE §4 worst-case mesh
//	cifgen -w stat -n 10000 -seed 7      Bentley–Haken–Hon statistical model
//	cifgen -w chip:testram -scale 0.1    a Table 5-1 stand-in chip
//	cifgen -target-boxes 8000000         size-targeted streamed chip
//
// -target-boxes selects the streaming generator: the chip is emitted
// as CIF text while it is generated, so multi-GB benchmark chips cost
// O(1) memory. Add -flat to write every box at top level instead of
// symbol calls (same flattened design, much bigger text).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ace/internal/cif"
	"ace/internal/cli"
	"ace/internal/gen"
)

func main() {
	var (
		workload = flag.String("w", "inverter", "workload: inverter|four|chain|memory|array|mesh|stat|chip:<name>")
		n        = flag.Int("n", 16, "size parameter (chain stages, array cells, mesh lines, stat boxes)")
		rows     = flag.Int("rows", 8, "memory rows")
		cols     = flag.Int("cols", 8, "memory columns")
		seed     = flag.Int64("seed", 1, "random seed for stochastic workloads")
		scale    = flag.Float64("scale", 1.0, "chip scale factor")
		out      = flag.String("o", "", "output file (default stdout)")
		target   = flag.Int64("target-boxes", 0, "emit a streamed chip with ~N flattened boxes (overrides -w)")
		cellBox  = flag.Int("cell-boxes", 0, "streamed mode: boxes per row cell (0 = default)")
		flat     = flag.Bool("flat", false, "streamed mode: flatten to top-level boxes")
	)
	flag.Parse()

	if *target > 0 {
		var info gen.StreamInfo
		err := writeOutput(*out, func(w io.Writer) (err error) {
			info, err = gen.StreamChip(w, gen.StreamSpec{
				TargetBoxes: *target, CellBoxes: *cellBox, Flat: *flat,
			})
			return err
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cifgen: %d boxes (%d row cells in %dx%d grid, %d gates)\n",
			info.Boxes, info.Instances, info.Cols, info.Rows, info.Gates)
		return
	}

	var f *cif.File
	switch {
	case *workload == "inverter":
		f = gen.Inverter()
	case *workload == "four":
		f = gen.FourInverters()
	case *workload == "chain":
		f = gen.InverterChain(*n).File
	case *workload == "memory":
		f = gen.Memory(*rows, *cols).File
	case *workload == "array":
		f = gen.SquareArray(*n).File
	case *workload == "mesh":
		f = gen.Mesh(*n).File
	case *workload == "stat":
		f = gen.Statistical(*n, *seed).File
	case strings.HasPrefix(*workload, "chip:"):
		name := strings.TrimPrefix(*workload, "chip:")
		c, ok := gen.ChipByName(name)
		if !ok {
			fatal(fmt.Errorf("unknown chip %q (have: %s)", name, chipNames()))
		}
		f = c.Build(*scale).File
	default:
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	if err := writeOutput(*out, func(w io.Writer) error { return cif.Write(w, f) }); err != nil {
		fatal(err)
	}
}

// writeOutput sends write's output to the -o path (stdout when empty)
// through a 1 MiB buffer; the file replaces path only once everything
// is written (see cli.WriteOutput).
func writeOutput(path string, write func(io.Writer) error) error {
	return cli.WriteOutput(path, func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		if err := write(bw); err != nil {
			return err
		}
		return bw.Flush()
	})
}

func chipNames() string {
	names := make([]string, len(gen.Chips))
	for i, c := range gen.Chips {
		names[i] = c.Name
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cifgen:", err)
	os.Exit(1)
}
