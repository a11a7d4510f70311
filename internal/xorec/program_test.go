package xorec

import (
	"testing"

	"dialga/internal/engine"
	"dialga/internal/mem"
	"dialga/internal/workload"
)

func testLayout(t *testing.T, k, m, block, totalKB int) *workload.Layout {
	t.Helper()
	l, err := workload.New(workload.Config{
		K: k, M: m, BlockSize: block,
		TotalDataBytes: totalKB << 10,
		Seed:           5,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestProgramCoversDataAndFlushesParity(t *testing.T) {
	cfg := mem.DefaultConfig()
	enc, err := NewEncoder(4, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := testLayout(t, 4, 2, 1024, 64)
	p := NewProgram(l, &cfg, enc.Schedule())
	if p.DataBytes() != l.DataBytes() {
		t.Fatal("DataBytes mismatch")
	}
	dataLines := map[mem.Addr]bool{}
	parityStores := map[mem.Addr]bool{}
	var op engine.Op
	for {
		op.Reset()
		if !p.Next(&op) {
			break
		}
		for _, a := range op.Loads {
			dataLines[a.LineAddr()] = true
		}
		for _, a := range op.Stores {
			parityStores[a.LineAddr()] = true
		}
	}
	// All data lines are touched (XOR codecs read everything, often
	// repeatedly), and every parity line is written exactly once per
	// stripe via the flush.
	for s := 0; s < l.Stripes; s++ {
		for j := 0; j < 4; j++ {
			for line := 0; line < 16; line++ {
				a := (l.Data[s][j] + mem.Addr(line*64)).LineAddr()
				if !dataLines[a] {
					t.Fatalf("data line %x never loaded", uint64(a))
				}
			}
		}
		for i := 0; i < 2; i++ {
			for line := 0; line < 16; line++ {
				a := (l.Parity[s][i] + mem.Addr(line*64)).LineAddr()
				if !parityStores[a] {
					t.Fatalf("parity line %x never stored", uint64(a))
				}
			}
		}
	}
}

func TestProgramRunsOnEngine(t *testing.T) {
	cfg := mem.DefaultConfig()
	enc, err := NewEncoder(8, 4, Options{SmartSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(cfg, mem.PM)
	if err != nil {
		t.Fatal(err)
	}
	l := testLayout(t, 8, 4, 1024, 512)
	e.AddThread(NewProgram(l, e.Config(), enc.Schedule()))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputGBps <= 0 {
		t.Fatal("no throughput")
	}
	// The XOR pattern re-reads data packets: application-level loads
	// must exceed one per data line.
	if res.EncodeReadBytes <= res.DataBytes {
		t.Fatal("XOR codec should issue more loads than one per data byte")
	}
}

// XOR codecs must be slower on the simulated PM than the table-lookup
// kernel at equal parameters — the paper's core comparison (§2.2, §5.2).
func TestXORSlowerThanTableLookupOnPM(t *testing.T) {
	cfg := mem.DefaultConfig()
	enc, _ := NewCerasure(8, 4)

	run := func(p engine.Program) float64 {
		e, err := engine.New(cfg, mem.PM)
		if err != nil {
			t.Fatal(err)
		}
		e.AddThread(p)
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputGBps
	}
	xor := run(NewProgram(testLayout(t, 8, 4, 1024, 1024), &cfg, enc.Schedule()))
	isal := run(isalLike(t, &cfg))
	if xor >= isal {
		t.Fatalf("XOR codec (%v GB/s) not slower than table-lookup (%v GB/s)", xor, isal)
	}
}

// isalLike emits the table-lookup pattern without importing package
// isal (no import cycle, xorec is a lower layer): one load per data
// line, row-major.
type tablePattern struct {
	l      *workload.Layout
	cfg    *mem.Config
	stripe int
	row    int
}

func isalLike(t *testing.T, cfg *mem.Config) engine.Program {
	return &tablePattern{l: testLayout(t, 8, 4, 1024, 1024), cfg: cfg}
}

func (p *tablePattern) DataBytes() uint64 { return p.l.DataBytes() }

func (p *tablePattern) Next(op *engine.Op) bool {
	if p.stripe >= p.l.Stripes {
		return false
	}
	off := mem.Addr(p.row * 64)
	for j := 0; j < p.l.K; j++ {
		op.Loads = append(op.Loads, p.l.Data[p.stripe][j]+off)
	}
	op.ComputeCycles = float64(p.l.K*p.l.M) * p.cfg.ComputeCycPerVecParity
	for i := 0; i < p.l.M; i++ {
		op.Stores = append(op.Stores, p.l.Parity[p.stripe][i]+off)
	}
	p.row++
	if p.row >= p.l.LinesPerBlock() {
		p.row = 0
		p.stripe++
	}
	return true
}

func TestCombinedScheduleMatchesDirectEncode(t *testing.T) {
	// The decomposed combined schedule must compute the same parity as
	// the monolithic encoder when executed on real bytes, including the
	// partial-parity recombination.
	d, err := NewDecomposed(24, 4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := d.CombinedSchedule()
	full, err := NewEncoder(24, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, 24)
	for i := range data {
		data[i] = make([]byte, 256)
		for j := range data[i] {
			data[i][j] = byte(i*37 + j)
		}
	}
	want := encode(full, data)

	// Execute the combined schedule: parity space = groups*m blocks.
	scratch := blocks(len(d.groups)*4, 256)
	run(sched, data, scratch)
	for i := 0; i < 4; i++ {
		for j := range want[i] {
			if scratch[i][j] != want[i][j] {
				t.Fatalf("combined schedule parity %d differs at %d", i, j)
			}
		}
	}
}
