package main

import (
	"bytes"
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
