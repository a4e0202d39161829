package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkMetrics reads the end-to-end and per-layer metric names that
// BENCHMARK.json promises.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// printedMetrics prints a report and returns the metric names of its JSON
// summary line, checking that every one also has a line of its own.
func printedMetrics(t *testing.T, rep *report) []string {
	t.Helper()
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var summary struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s", err, out.String())
	}
	if !summary.Correct || summary.Failed != 0 || summary.Attempted < 1 {
		t.Errorf("summary correct=%v attempted=%d failed=%d, failures %q", summary.Correct, summary.Attempted, summary.Failed, rep.failures)
	}
	var names []string
	for name := range summary.Metrics {
		names = append(names, name)
		found := false
		for _, l := range lines[:len(lines)-1] {
			if f := strings.Fields(l); len(f) > 1 && f[1] == name {
				found = true
			}
		}
		if !found {
			t.Errorf("metric %s has no line of its own", name)
		}
	}
	sort.Strings(names)
	return names
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	want = append([]string(nil), want...)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s metrics:\n got %v\nwant %v", what, got, want)
	}
}

// TestSmoke runs every workload at a shrunken size: two iterations and a
// traced one agree digest for digest, and the end-to-end and traced
// measurements print exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{root: "..", seed: 1, small: true, outDir: t.TempDir()}
			r, _, err := prepare(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, second := iterate(r, nil), iterate(r, nil)
			tr := newTracer()
			tr.beginIteration()
			traced := iterate(r, tr)
			for i, u := range first {
				if u.err != nil || second[i].err != nil || traced[i].err != nil {
					t.Fatalf("%s: errors %v / %v / %v", u.name, u.err, second[i].err, traced[i].err)
				}
				if u.digest == "" || u.digest != second[i].digest {
					t.Errorf("%s: iterations disagree: %q vs %q", u.name, u.digest, second[i].digest)
				}
				if u.digest != traced[i].digest {
					t.Errorf("%s: traced digest %q, untraced %q", u.name, traced[i].digest, u.digest)
				}
			}

			rep, err := runMeasured(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, "end-to-end", printedMetrics(t, rep), endToEnd)

			rep, err = runTraced(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, "per-layer", printedMetrics(t, rep), perLayer)
			for _, f := range []string{w.name + ".json", w.name + ".pprof"} {
				if _, err := os.Stat(filepath.Join(cfg.outDir, f)); err != nil {
					t.Errorf("traced run left no %s: %v", f, err)
				}
			}
		})
	}
}
