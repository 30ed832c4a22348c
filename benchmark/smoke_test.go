package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke drives all five workloads end to end for 100 ms rounds and
// one short ladder (about 3 s), so tier-1 proves the harness still builds,
// connects, verifies and reports without paying for a measurement. It
// asserts no duration: this box runs 40 % slow whenever a neighbour is busy.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	var buf bytes.Buffer
	res, err := bench(options{seed: 1, trace: "both", out: out, smoke: true, log: io.Discard}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Errorf("smoke run saw failed operations:\n%s", buf.String())
	}
	for _, sp := range specs {
		wr := res.Workloads[sp.name]
		if wr == nil {
			t.Fatalf("%s: no result", sp.name)
		}
		for _, m := range endToEnd {
			s, ok := wr.EndToEnd[m.name]
			if !ok || s.N == 0 {
				t.Errorf("%s: %s not reported", sp.name, m.name)
			}
			if m.name != "fail_ratio" && !(s.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", sp.name, m.name, s.Value)
			}
		}
		if sp.fits && wr.EndToEnd["hit_ratio"].Value != 1 {
			t.Errorf("%s fits its cache but hit_ratio = %v", sp.name, wr.EndToEnd["hit_ratio"].Value)
		}
		if !strings.Contains(buf.String(), "== "+sp.name) {
			t.Errorf("%s missing from the printed tables", sp.name)
		}
	}

	first := res.Workloads[specs[0].name]
	for _, m := range perLayer {
		if _, ok := first.PerLayer[m.name]; !ok {
			t.Errorf("per-layer metric %s not reported", m.name)
		}
	}
	if len(first.PerLayer) != len(perLayer) {
		t.Errorf("ladder reported %d metrics, the table lists %d", len(first.PerLayer), len(perLayer))
	}
	if got := first.PerLayer["hodor.crossings_per_op"]; got < 0.99 || got > 1.01 {
		t.Errorf("hodor.crossings_per_op on %s = %v, want 1", specs[0].name, got)
	}
	var spans []span
	raw, err := os.ReadFile(filepath.Join(out, "trace-"+specs[0].name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("trace file: %d spans, %v", len(spans), err)
	}
	if spans[0].Parent != 0 || spans[1].Parent != spans[0].ID || spans[2].Parent != spans[1].ID {
		t.Errorf("span parents: root %+v, rung %+v, block %+v", spans[0], spans[1], spans[2])
	}
}

// BENCHMARK.json at the repository root is the contract a driver reads;
// it must name exactly the workloads and metrics this package reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(specs))
	}
	for i, sp := range specs {
		if doc.Workloads[i].Name != sp.name {
			t.Errorf("workload %d is %q, want %q", i, doc.Workloads[i].Name, sp.name)
		}
	}
	var want []entry
	for _, m := range endToEnd {
		if m.name != "fail_ratio" { // reported as attempted/failed: the contract wants metrics that are never 0
			want = append(want, entry{m.name, m.unit, better(m.higher), m.bound})
		}
	}
	if len(doc.EndToEnd) != len(want) {
		t.Fatalf("%d end-to-end metrics listed, %d reported", len(doc.EndToEnd), len(want))
	}
	for i := range want {
		if doc.EndToEnd[i] != want[i] {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, doc.EndToEnd[i], want[i])
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := doc.PerLayer[i]; got != (entry{m.name, m.unit, better(m.higher), 0}) {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, got, m.name, m.unit, better(m.higher))
		}
	}
}
