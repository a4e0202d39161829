package scenariofile

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the messages in testdata/rejections.golden")

const rejectionsGolden = "testdata/rejections.golden"

// rejection is one single-error document and the full message Parse
// rejects it with.
type rejection struct{ name, doc, msg string }

// loadRejections reads testdata/rejections.golden: one row per rejection
// branch of the decoder, holding the document name, the Go-quoted
// document and its message, separated by tabs.
func loadRejections(tb testing.TB) []rejection {
	data, err := os.ReadFile(rejectionsGolden)
	if err != nil {
		tb.Fatal(err)
	}
	var rows []rejection
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, rest, ok := strings.Cut(line, "\t")
		quoted, msg, ok2 := strings.Cut(rest, "\t")
		doc, err := strconv.Unquote(quoted)
		if !ok || !ok2 || err != nil {
			tb.Fatalf("%s:%d: want name<TAB>quoted document<TAB>message", rejectionsGolden, i+1)
		}
		rows = append(rows, rejection{name, doc, msg})
	}
	return rows
}

// TestParseRejections pins the full positioned message of every
// rejection branch. -update rewrites the message column.
func TestParseRejections(t *testing.T) {
	var golden strings.Builder
	for _, r := range loadRejections(t) {
		_, err := Parse([]byte(r.doc), r.name)
		switch {
		case err == nil:
			t.Errorf("%s: accepted", r.name)
		case *update:
			fmt.Fprintf(&golden, "%s\t%s\t%v\n", r.name, strconv.Quote(r.doc), err)
		case err.Error() != r.msg:
			t.Errorf("%s: message drifted:\n got %v\nwant %s", r.name, err, r.msg)
		}
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(rejectionsGolden, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzParse feeds arbitrary documents to Parse: it must never panic, and
// every error it returns must begin with the document name.
func FuzzParse(f *testing.F) {
	for _, glob := range []string{"../../scenarios/*.yaml", "../../cmd/pfsim-scenario/testdata/*.yaml", "../../cmd/pfsim-trace/testdata/*.yaml"} {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seeds for %s: %v", glob, err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	for _, r := range loadRejections(f) {
		f.Add([]byte(r.doc))
	}
	f.Add([]byte(`{"name": "j", "horizon": 100, "fleet": [{"ior": {"tasks": 8}, "count": 2}],
		"timeline": [{"at": 5, "ost_health": {"ost": 1, "factor": 0.5}}], "assert": {"makespan": {"max": 90}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := Parse(data, "fuzz.yaml"); err != nil && !strings.HasPrefix(err.Error(), "fuzz.yaml") {
			t.Fatalf("error does not name the document: %v", err)
		}
	})
}
