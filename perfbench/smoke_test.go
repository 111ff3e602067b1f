package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// The smoke test runs every workload at tiny sizes. Run it with
//
//	cd perfbench && go test .

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestSpecMatchesProgram checks that BENCHMARK.json names exactly the
// workloads and metrics this program prints, with valid names.
func TestSpecMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: spec %q (why %d bytes), program %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	seen := map[string]bool{}
	check := func(kind, name, unit, better string, want map[string]string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s metric %q: bad or repeated name", kind, name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) || want[name] != unit {
			t.Errorf("%s metric %q: unit %q, program prints %q", kind, name, unit, want[name])
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s metric %q: better = %q", kind, name, better)
		}
	}
	e2e := map[string]string{}
	for _, n := range endToEndNames {
		e2e[n.name] = n.unit
	}
	layers := map[string]string{}
	for _, n := range perLayerNames {
		layers[n.name] = n.unit
	}
	for _, m := range spec.EndToEnd {
		check("end-to-end", m.Name, m.Unit, m.Better, e2e)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %g", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		check("per-layer", m.Name, m.Unit, m.Better, layers)
	}
	if len(spec.EndToEnd) != len(endToEndNames) || len(spec.PerLayer) != len(perLayerNames) {
		t.Errorf("spec lists %d+%d metrics, program prints %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEndNames), len(perLayerNames))
	}
}

// layerOf lists, per workload, the per-layer metrics its traced pass
// must measure itself rather than leave at zero.
var layerOf = map[string][]string{
	"flat_table51": {"cif.parse_ms", "frontend.self_ms", "frontend.boxes", "scan.self_ms", "scan.stops",
		"build.net_elems", "wirelist.write_ms", "wirelist.bytes", "extract.allocs_per_op", "trace.overhead_ratio"},
	"hier_edit": {"hext.frontend_ms", "hext.leaf_ms", "hext.flatten_ms", "hext.alloc_bytes", "hext.flat_calls",
		"store.write_ms", "store.syncs", "store.bytes_written", "store.bytes_read", "trace.overhead_ratio"},
	"serve_mix": {"serve.client_ms", "serve.handler_ms", "serve.engine_ms", "serve.accepted", "serve.extractions",
		"cif.parse_ms", "wirelist.bytes", "trace.overhead_ratio"},
	"tiles_stream": {"tile.bytes_read", "tile.tiles_decoded", "tile.window_tile_ratio", "tile.decode_ms",
		"scan.self_ms", "scan.stops", "wirelist.bytes", "trace.overhead_ratio"},
}

func tinyRun(t *testing.T, name string, traced, wrong bool) (*report, []byte) {
	t.Helper()
	var w workload
	for _, wl := range workloads {
		if wl.name == name {
			w = wl.make()
		}
	}
	c := &config{seed: 7, dur: 500 * time.Millisecond, dir: t.TempDir(), storeRoot: t.TempDir(), tiny: true, wrong: wrong}
	r, err := runOne(c, w, traced)
	w.close()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out bytes.Buffer
	r.write(&out, name, traced)
	return r, out.Bytes()
}

// lastLine decodes the result line and checks its shape.
func lastLine(t *testing.T, out []byte, want []struct{ name, unit string }) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]metric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("%d metrics printed, want %d", len(metrics), len(want))
	}
	for _, n := range want {
		m, ok := metrics[n.name]
		if !ok || m.Unit != n.unit || math.IsNaN(m.Value) || m.Value < 0 && n.name != "trace.overhead_ratio" {
			t.Errorf("metric %q: %+v (present %v)", n.name, m, ok)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			r, out := tinyRun(t, wl.name, false, false)
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.failures)
			}
			lastLine(t, out, endToEndNames)
			for _, n := range endToEndNames {
				if r.gated[n.name].Value <= 0 {
					t.Errorf("end-to-end metric %q = %g, want > 0", n.name, r.gated[n.name].Value)
				}
			}

			r, out = tinyRun(t, wl.name, true, false)
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("traced: %d of %d operations failed: %v", r.failed, r.attempted, r.failures)
			}
			lastLine(t, out, perLayerNames)
			for _, n := range layerOf[wl.name] {
				if r.layers[n].Value == 0 {
					t.Errorf("traced: %q not measured", n)
				}
			}
		})
	}
}

// TestWrongReferenceFails proves the checks bite: with every reference
// corrupted, operations must fail and the run must not report correct.
func TestWrongReferenceFails(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			r, out := tinyRun(t, wl.name, false, true)
			if r.failed == 0 {
				t.Fatalf("no operation failed against a wrong reference (%d attempted)", r.attempted)
			}
			if !bytes.Contains(out, []byte(`"correct":false`)) {
				t.Fatal("result line does not report correct=false")
			}
		})
	}
}
