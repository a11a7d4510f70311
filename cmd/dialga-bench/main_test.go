package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dialga/internal/harness"
)

// runCLI drives run the way main does and returns what it wrote.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestListPrintsFigureIDs(t *testing.T) {
	code, out, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("-list exited %d, want 0", code)
	}
	if want := strings.Join(harness.FigureIDs, "\n") + "\n"; out != want {
		t.Fatalf("-list printed %q, want %q", out, want)
	}
}

func TestFigureCSVHasHeaderRow(t *testing.T) {
	code, out, stderr := runCLI("-fig", "fig03", "-quick", "-csv")
	if code != 0 {
		t.Fatalf("exited %d, want 0; stderr: %s", code, stderr)
	}
	f, err := (&harness.Runner{Quick: true, Repeats: 1}).ByID("fig03")
	if err != nil {
		t.Fatal(err)
	}
	header, rows, _ := strings.Cut(out, "\n")
	if !strings.HasPrefix(header, f.XName+",") || len(strings.Split(header, ",")) != 1+len(f.Series) {
		t.Fatalf("first line %q is not the header row for x=%q and %d series", header, f.XName, len(f.Series))
	}
	if strings.Count(rows, "\n") != len(f.XLabels) {
		t.Fatalf("%d data rows, want %d", strings.Count(rows, "\n"), len(f.XLabels))
	}
}

func TestUnknownFigureFails(t *testing.T) {
	code, out, stderr := runCLI("-fig", "fig99")
	if code != 1 || out != "" || stderr == "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 1, empty stdout, an error on stderr", code, out, stderr)
	}
}

func TestNoModeFlagPrintsUsage(t *testing.T) {
	code, out, stderr := runCLI()
	if code != 2 {
		t.Fatalf("exited %d, want 2", code)
	}
	if out != "" || !strings.Contains(stderr, "-fig") {
		t.Fatalf("usage must go to stderr only; stdout %q, stderr %q", out, stderr)
	}
}

// The live-system modes are gone: their flags are unknown, not ignored.
func TestDeletedModeFlagRejected(t *testing.T) {
	code, _, stderr := runCLI("-cluster")
	if code != 2 {
		t.Fatalf("exited %d, want 2", code)
	}
	if !strings.Contains(stderr, "flag provided but not defined: -cluster") {
		t.Fatalf("stderr %q does not reject -cluster as unknown", stderr)
	}
}

// -system prints, for every compared system, the throughput the
// figures compute for the same spec.
func TestSystemPrintsHarnessThroughput(t *testing.T) {
	r := &harness.Runner{Quick: true}
	for _, st := range systems {
		code, out, stderr := runCLI("-system", string(st), "-k", "8", "-m", "4", "-block", "1024", "-threads", "1", "-quick")
		if code != 0 {
			t.Fatalf("%s: exited %d; stderr: %s", st, code, stderr)
		}
		res, err := r.Run(harness.BaseSpec(st, 8, 4, 1024, 1))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("throughput:        %8.3f GB/s", res.ThroughputGBps)
		if !strings.Contains(out, want) {
			t.Fatalf("%s: output lacks %q:\n%s", st, want, out)
		}
		// Fig. 18's quick +BF cell at k=8.
		if st == harness.StratDialga && !strings.Contains(out, "6.951 GB/s") {
			t.Fatalf("DIALGA RS(12,8) quick run is not 6.951 GB/s:\n%s", out)
		}
	}
}

func TestSystemRejectsBadUse(t *testing.T) {
	for _, args := range [][]string{
		{"-system", "ISA-L-PF"},
		{"-system", "DIALGA", "-fig", "fig10"},
		{"-system", "DIALGA", "-all"},
	} {
		code, out, stderr := runCLI(args...)
		if code != 2 || out != "" || stderr == "" {
			t.Fatalf("%q: exit %d, stdout %q, stderr %q; want 2, empty stdout, an error on stderr", args, code, out, stderr)
		}
	}
}
