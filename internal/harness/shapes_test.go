package harness

import (
	"testing"

	"dialga/internal/mem"
)

// Shape tests: medium-size runs asserting the paper's qualitative
// claims hold on the simulated testbed. These use working sets large
// enough to exceed the LLC, so they are guarded by -short.

// shapeRunner uses full-size working sets but no sweeps.
func shapeRunner(t *testing.T) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("shape tests need full working sets; skipped in -short mode")
	}
	return &Runner{}
}

func mustRun(t *testing.T, r *Runner, s RunSpec) float64 {
	t.Helper()
	res, err := r.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	return res.ThroughputGBps
}

// Obs. 1: PM encoding is much slower than DRAM encoding.
func TestShapePMSlowerThanDRAM(t *testing.T) {
	r := shapeRunner(t)
	pm := BaseSpec(StratISAL, 8, 4, 1024, 1)
	dram := pm
	dram.Source = mem.DRAM
	if mustRun(t, r, dram) < 1.4*mustRun(t, r, pm) {
		t.Fatal("DRAM should be much faster than PM (Obs. 1)")
	}
}

// Obs. 3: the stream-table cliff — k=36 collapses relative to k=32.
func TestShapeStreamTableCliff(t *testing.T) {
	r := shapeRunner(t)
	at32 := mustRun(t, r, BaseSpec(StratISAL, 32, 4, 4096, 1))
	at36 := mustRun(t, r, BaseSpec(StratISAL, 36, 4, 4096, 1))
	if at36 > 0.55*at32 {
		t.Fatalf("no stream-table cliff: k=36 (%v) vs k=32 (%v)", at36, at32)
	}
}

// Obs. 4: the prefetcher is useless at 256 B blocks and strong at 4 KB.
func TestShapeBlockSizeSensitivity(t *testing.T) {
	r := shapeRunner(t)
	small := BaseSpec(StratISAL, 24, 4, 256, 1)
	smallOff := BaseSpec(StratISALNoPF, 24, 4, 256, 1)
	big := BaseSpec(StratISAL, 24, 4, 4096, 1)
	bigOff := BaseSpec(StratISALNoPF, 24, 4, 4096, 1)
	gainSmall := mustRun(t, r, small) / mustRun(t, r, smallOff)
	gainBig := mustRun(t, r, big) / mustRun(t, r, bigOff)
	if gainSmall > 1.1 {
		t.Fatalf("256B blocks should see ~no prefetcher benefit, got %.2fx", gainSmall)
	}
	if gainBig < 1.5 {
		t.Fatalf("4KB blocks should see a large prefetcher benefit, got %.2fx", gainBig)
	}
}

// Obs. 5: prefetch-on scalability collapses past its knee.
func TestShapeConcurrencyKnee(t *testing.T) {
	r := shapeRunner(t)
	at8 := mustRun(t, r, BaseSpec(StratISAL, 24, 4, 4096, 8))
	at18 := mustRun(t, r, BaseSpec(StratISAL, 24, 4, 4096, 18))
	if at18 > 0.75*at8 {
		t.Fatalf("no thrash knee: t=18 (%v) vs t=8 (%v)", at18, at8)
	}
}

// §5.2: DIALGA beats ISA-L across narrow, medium and wide stripes.
func TestShapeDialgaBeatsISAL(t *testing.T) {
	r := shapeRunner(t)
	for _, k := range []int{8, 24, 48} {
		isal := mustRun(t, r, BaseSpec(StratISAL, k, 4, 1024, 1))
		dial := mustRun(t, r, BaseSpec(StratDialga, k, 4, 1024, 1))
		if dial < 1.2*isal {
			t.Fatalf("k=%d: DIALGA (%v) not clearly above ISA-L (%v)", k, dial, isal)
		}
	}
}

// §5.2: XOR codecs sit below the table-lookup codec on PM.
func TestShapeXORBelowISAL(t *testing.T) {
	r := shapeRunner(t)
	isal := mustRun(t, r, BaseSpec(StratISAL, 24, 4, 1024, 1))
	cer := mustRun(t, r, BaseSpec(StratCerasure, 24, 4, 1024, 1))
	if cer >= isal {
		t.Fatalf("Cerasure (%v) not below ISA-L (%v) on PM", cer, isal)
	}
}

// §5.2.1: decomposition recovers wide stripes for the table-lookup
// codec.
func TestShapeDecomposeRecoversWideStripes(t *testing.T) {
	r := shapeRunner(t)
	isal := mustRun(t, r, BaseSpec(StratISAL, 48, 4, 1024, 1))
	isald := mustRun(t, r, BaseSpec(StratISALD, 48, 4, 1024, 1))
	if isald < 1.3*isal {
		t.Fatalf("ISA-L-D (%v) should clearly beat collapsed ISA-L (%v) at k=48", isald, isal)
	}
}

// §5.4: XOR decode is not faster than XOR encode (dense decode
// matrices), while table-lookup decode matches encode.
func TestShapeDecode(t *testing.T) {
	r := shapeRunner(t)
	encC, err := r.Run(BaseSpec(StratCerasure, 24, 4, 1024, 1))
	if err != nil {
		t.Fatal(err)
	}
	decC, err := r.runDecode(StratCerasure, 24, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if decC > 1.1*encC.ThroughputGBps {
		t.Fatalf("XOR decode (%v) unexpectedly above encode (%v)", decC, encC.ThroughputGBps)
	}
	decI, err := r.runDecode(StratISAL, 24, 4, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if decI < 2*decC {
		t.Fatalf("table-lookup decode (%v) should far exceed XOR decode (%v)", decI, decC)
	}
}

// §5.9: DIALGA removes most of ISA-L's media amplification at 18
// threads.
func TestShapeReadTrafficReduction(t *testing.T) {
	r := shapeRunner(t)
	isal, err := r.Run(BaseSpec(StratISAL, 24, 4, 1024, 18))
	if err != nil {
		t.Fatal(err)
	}
	dial, err := r.Run(BaseSpec(StratDialga, 24, 4, 1024, 18))
	if err != nil {
		t.Fatal(err)
	}
	ampI := float64(isal.MediaReadBytes) / float64(isal.EncodeReadBytes)
	ampD := float64(dial.MediaReadBytes) / float64(dial.EncodeReadBytes)
	if ampI < 1.3 {
		t.Fatalf("ISA-L at 18 threads should amplify media reads, got %.2fx", ampI)
	}
	if ampD > 0.6*ampI {
		t.Fatalf("DIALGA amplification %.2fx not well below ISA-L %.2fx", ampD, ampI)
	}
}
