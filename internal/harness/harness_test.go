package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"

	"dialga/internal/mem"
)

// quickRunner trims everything; these tests exercise plumbing, not
// shapes (quick working sets fit the LLC).
func quickRunner() *Runner { return &Runner{Quick: true} }

// figuresSHA256 is the SHA-256 of every quick figure's Table() text,
// in FigureIDs order. A simulator change that means to move no number
// keeps it; one that means to must say so by changing it.
const figuresSHA256 = "1a0bfa612b50f9ff9dbf487914e46bd430fb934a9b52f51a84c959864f178f6e"

func TestEveryFigureRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke run skipped in -short mode")
	}
	r := quickRunner()
	sum := sha256.New()
	for _, id := range FigureIDs {
		f, err := r.ByID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if f.ID != id {
			t.Fatalf("figure id mismatch: %s vs %s", f.ID, id)
		}
		if len(f.XLabels) == 0 || len(f.Series) == 0 {
			t.Fatalf("%s: empty figure", id)
		}
		for _, s := range f.Series {
			if len(s.Y) != len(f.XLabels) {
				t.Fatalf("%s series %q: %d points for %d labels", id, s.Name, len(s.Y), len(f.XLabels))
			}
		}
		// Tables and CSV render without panicking and carry the data.
		tab := f.Table()
		if !strings.Contains(tab, id) {
			t.Fatalf("%s: table missing id", id)
		}
		sum.Write([]byte(tab))
		csv := f.CSV()
		if len(strings.Split(strings.TrimSpace(csv), "\n")) != len(f.XLabels)+1 {
			t.Fatalf("%s: csv row count wrong", id)
		}
	}
	// Only amd64 is pinned: arm64 may fuse a multiply and an add, and
	// the rounding it skips moves low digits.
	if got := hex.EncodeToString(sum.Sum(nil)); runtime.GOARCH == "amd64" && got != figuresSHA256 {
		t.Errorf("figure tables hash to %s, want %s: a figure's numbers changed", got, figuresSHA256)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := quickRunner().ByID("fig99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunSpecStrategies(t *testing.T) {
	r := quickRunner()
	for _, st := range comparedStrategies() {
		s := BaseSpec(st, 8, 2, 1024, 1)
		res, err := r.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", st, err)
		}
		if res.ThroughputGBps <= 0 {
			t.Fatalf("%s: no throughput", st)
		}
	}
}

func TestUnknownStrategy(t *testing.T) {
	r := quickRunner()
	s := BaseSpec("nope", 4, 2, 1024, 1)
	if _, err := r.Run(s); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestZerasureWideStripeError(t *testing.T) {
	r := quickRunner()
	s := BaseSpec(StratZerasure, 48, 4, 1024, 1)
	if _, err := r.Run(s); err == nil {
		t.Fatal("Zerasure at k=48 should fail (search space)")
	}
}

func TestDecodeRun(t *testing.T) {
	r := quickRunner()
	for _, st := range []Strategy{StratISAL, StratCerasure, StratDialga} {
		y, err := r.runDecode(st, 8, 4, 1024)
		if err != nil {
			t.Fatalf("%s decode: %v", st, err)
		}
		if y <= 0 || math.IsNaN(y) {
			t.Fatalf("%s decode: bad throughput %v", st, y)
		}
	}
}

func TestLRCRun(t *testing.T) {
	r := quickRunner()
	y, err := r.runLRC(StratDialga, 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if y <= 0 {
		t.Fatal("no LRC throughput")
	}
}

func TestGen01AndMix01Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run skipped in -short mode")
	}
	r := quickRunner()
	for _, id := range []string{"gen01", "mix01"} {
		f, err := r.ByID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, s := range f.Series {
			for _, y := range s.Y {
				if y <= 0 {
					t.Fatalf("%s series %s has non-positive point", id, s.Name)
				}
			}
		}
	}
}

func TestRepeatsAveraging(t *testing.T) {
	if testing.Short() {
		t.Skip("averaging smoke skipped in -short mode")
	}
	r := &Runner{Quick: true, Repeats: 2}
	y, err := r.throughputAvg(BaseSpec(StratISAL, 8, 4, 1024, 2))
	if err != nil {
		t.Fatal(err)
	}
	if y <= 0 {
		t.Fatal("averaged throughput not positive")
	}
	// Single-threaded runs are not repeated (deterministic anyway).
	y1, err := r.throughputAvg(BaseSpec(StratISAL, 8, 4, 1024, 1))
	if err != nil || y1 <= 0 {
		t.Fatal("single-thread average failed")
	}
}

func TestFigureAddPoint(t *testing.T) {
	f := &Figure{}
	f.AddPoint("a", 1)
	f.AddPoint("b", 2)
	f.AddPoint("a", 3)
	if len(f.Series) != 2 {
		t.Fatal("series not deduplicated by name")
	}
	if len(f.Series[0].Y) != 2 || f.Series[0].Y[1] != 3 {
		t.Fatal("points not appended")
	}
}

func TestImprovementRange(t *testing.T) {
	f := &Figure{XLabels: []string{"a", "b", "c"}}
	f.Series = []Series{
		{Name: "DIALGA", Y: []float64{2, 4, nan}},
		{Name: "ISA-L", Y: []float64{1, 2, 3}},
		{Name: "Zerasure", Y: []float64{0.5, nan, 1}},
	}
	lo, hi, ok := f.ImprovementRange("DIALGA")
	if !ok {
		t.Fatal("no range computed")
	}
	// Points: a: 2 vs best-other 1 => +100%; b: 4 vs 2 => +100%;
	// c: nan skipped.
	if lo != 100 || hi != 100 {
		t.Fatalf("range = [%v, %v], want [100, 100]", lo, hi)
	}
	if _, _, ok := f.ImprovementRange("nope"); ok {
		t.Fatal("missing series accepted")
	}
}

func TestImprovement(t *testing.T) {
	if improvement(2, 1) != 100 {
		t.Fatal("improvement(2,1) != 100%")
	}
	if improvement(1, 0) != 0 {
		t.Fatal("zero baseline not guarded")
	}
}

func TestCSVEscape(t *testing.T) {
	f := &Figure{XName: "a,b", XLabels: []string{`he"y`}}
	f.AddPoint("s", 1)
	csv := f.CSV()
	if !strings.Contains(csv, `"a,b"`) || !strings.Contains(csv, `"he""y"`) {
		t.Fatalf("csv escaping wrong: %q", csv)
	}
}

func TestBytesLabel(t *testing.T) {
	if bytesLabel(256) != "256B" || bytesLabel(1024) != "1KB" || bytesLabel(5120) != "5KB" {
		t.Fatal("bytesLabel wrong")
	}
}

func TestPerThreadBytesExceedLLCInFullMode(t *testing.T) {
	r := &Runner{}
	cfg := mem.DefaultConfig()
	if r.perThreadBytes(1) <= cfg.LLCSize {
		t.Fatal("full-mode single-thread working set must exceed the LLC")
	}
}
