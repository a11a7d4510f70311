package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dialga/bench/fixture"
	"dialga/internal/gf"
	"dialga/internal/node"
	"dialga/internal/rs"
	"dialga/internal/shardfile"
	"dialga/internal/stream"
)

// rung is one isolated layer cost: one goroutine calling a layer's
// public function on the same seeded 8 MiB object, RS(4,2), 1 MiB
// stripes, CRC-32C.
type rung struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Median  float64 `json:"median"`
	MAD     float64 `json:"mad"`
	Repeats int     `json:"repeats"`
}

// ladderRepeats is the number of timed repeats per rung, after one
// untimed warm-up call.
const ladderRepeats = 7

// measureRung times fn ladderRepeats times. fn returns how many units
// (bytes, or ops) one call handled; the rung's value is time per unit.
func measureRung(name, unit string, perUnit time.Duration, fn func() (int64, error)) (rung, error) {
	if _, err := fn(); err != nil {
		return rung{}, fmt.Errorf("%s: %w", name, err)
	}
	vals := make([]float64, ladderRepeats)
	for i := range vals {
		start := time.Now()
		n, err := fn()
		el := time.Since(start)
		if err != nil {
			return rung{}, fmt.Errorf("%s: %w", name, err)
		}
		vals[i] = float64(el) / float64(perUnit) / float64(n)
	}
	return rung{Name: name, Unit: unit, Median: median(vals), MAD: mad(vals), Repeats: ladderRepeats}, nil
}

// runLadder measures every rung, bottom up.
func runLadder(cfg config) ([]rung, error) {
	ctx := context.Background()
	k, m := fixture.Defaults.K, fixture.Defaults.M
	stripe := fixture.Defaults.StripeKiB * 1024
	shard := stripe / k
	stripes := bigSize / stripe
	object := newPayloads(cfg.seed).window(0, bigSize)
	code, err := rs.New(k, m)
	if err != nil {
		return nil, err
	}

	// Per-stripe views of the object and its parity, for the rs rungs.
	data := make([][][]byte, stripes)
	parity := make([][][]byte, stripes)
	for s := range data {
		data[s] = make([][]byte, k)
		for i := range data[s] {
			off := s*stripe + i*shard
			data[s][i] = object[off : off+shard]
		}
		parity[s] = make([][]byte, m)
		for i := range parity[s] {
			parity[s][i] = make([]byte, shard)
		}
		if err := code.Encode(data[s], parity[s]); err != nil {
			return nil, err
		}
	}
	scratch := make([][]byte, 4)
	for i := range scratch {
		scratch[i] = make([]byte, bigSize/k)
	}
	sums := make([]uint32, k+m)
	spare := [][]byte{make([]byte, shard), make([]byte, shard)}
	// erased rebuilds stripe s with its first n data shards missing.
	erased := func(s, n int) [][]byte {
		blocks := make([][]byte, 0, k+m)
		for i := 0; i < k; i++ {
			if i < n {
				blocks = append(blocks, spare[i][:0])
			} else {
				blocks = append(blocks, data[s][i])
			}
		}
		return append(blocks, parity[s]...)
	}
	perStripe := func(f func(s int) error) func() (int64, error) {
		return func() (int64, error) {
			for s := 0; s < stripes; s++ {
				if err := f(s); err != nil {
					return 0, err
				}
			}
			return bigSize, nil
		}
	}

	opts := stream.Options{Codec: code, StripeSize: stripe, Checksum: stream.ChecksumCRC32C}
	discard := make([]io.Writer, k+m)
	for i := range discard {
		discard[i] = io.Discard
	}
	encodeTo := func(ws []io.Writer) error {
		enc, err := stream.NewEncoder(opts)
		if err != nil {
			return err
		}
		return enc.Encode(ctx, bytes.NewReader(object), ws)
	}
	shardBufs := make([]bytes.Buffer, k+m)
	ws := make([]io.Writer, k+m)
	for i := range ws {
		ws[i] = &shardBufs[i]
	}
	if err := encodeTo(ws); err != nil {
		return nil, err
	}
	decodeFrom := func(missing int) error {
		dec, err := stream.NewDecoder(opts)
		if err != nil {
			return err
		}
		readers := make([]io.Reader, k+m)
		for i := missing; i < k+m; i++ {
			readers[i] = bytes.NewReader(shardBufs[i].Bytes())
		}
		return dec.Decode(ctx, readers, io.Discard, bigSize)
	}

	dir, err := os.MkdirTemp(cfg.dir, "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	header := func(i int) shardfile.Header {
		return shardfile.Header{
			Version: shardfile.VersionV3, Algo: shardfile.AlgoCRC32C,
			K: uint32(k), M: uint32(m), Index: uint32(i),
			ShardSize: uint32(shard), StripeCount: uint64(stripes), FileSize: bigSize,
		}
	}
	// encodeFiles is dialga-encode's path: stream-encode into k+m
	// header-prefixed files through bufio writers.
	files := filepath.Join(dir, "files")
	if err := os.Mkdir(files, 0o755); err != nil {
		return nil, err
	}
	encodeFiles := func() (int64, error) {
		fs := make([]*os.File, k+m)
		bws := make([]*bufio.Writer, k+m)
		ws := make([]io.Writer, k+m)
		defer func() {
			for _, f := range fs {
				if f != nil {
					f.Close()
				}
			}
		}()
		for i := range fs {
			f, err := os.Create(shardfile.Path(files, i))
			if err != nil {
				return 0, err
			}
			fs[i] = f
			if _, err := f.Write(header(i).Marshal()); err != nil {
				return 0, err
			}
			bws[i] = bufio.NewWriter(f)
			ws[i] = bws[i]
		}
		if err := encodeTo(ws); err != nil {
			return 0, err
		}
		for i, f := range fs {
			if err := bws[i].Flush(); err != nil {
				return 0, err
			}
			if err := f.Close(); err != nil {
				return 0, err
			}
			fs[i] = nil
		}
		return bigSize, nil
	}
	shardFileBytes := header(0).ExpectedFileSize()
	oneShard := append(header(0).Marshal(), shardBufs[0].Bytes()...)

	store, err := node.OpenStore(filepath.Join(dir, "store"), nil)
	if err != nil {
		return nil, err
	}
	fx, err := fixture.Start(fixture.Options{Dir: filepath.Join(dir, "cluster")})
	if err != nil {
		return nil, err
	}
	defer fx.Close()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	cli := node.NewClient(fx.Nodes[0].Addr).WithHTTPClient(hc)
	gw := fx.Gateway
	const object0 = "ladder"
	url := fx.GatewayURL + "/v1/object/" + object0

	const perByte = time.Nanosecond
	rungs := []struct {
		name, unit string
		per        time.Duration
		fn         func() (int64, error)
	}{
		{"gf.mul_add4_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			src := object[:len(scratch[0])]
			gf.MulAdd4(3, 5, 7, 11, scratch[0], scratch[1], scratch[2], scratch[3], src)
			return int64(len(src)), nil
		}},
		{"gf.crc32c_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			sums[0] = gf.CRC32C(object)
			return bigSize, nil
		}},
		{"rs.encode_ns_per_byte", "ns/B", perByte, perStripe(func(s int) error {
			return code.Encode(data[s], parity[s])
		})},
		{"rs.encode_sum_ns_per_byte", "ns/B", perByte, perStripe(func(s int) error {
			return code.EncodeSumInto(sums, data[s], parity[s])
		})},
		{"rs.reconstruct_data_ns_per_byte", "ns/B", perByte, perStripe(func(s int) error {
			return code.ReconstructData(erased(s, 2))
		})},
		{"rs.reconstruct_sum_ns_per_byte", "ns/B", perByte, perStripe(func(s int) error {
			return code.ReconstructSum(erased(s, 1), sums)
		})},
		{"stream.encode_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			return bigSize, encodeTo(discard)
		}},
		{"stream.decode_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			return bigSize, decodeFrom(0)
		}},
		{"stream.decode_degraded_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			return bigSize, decodeFrom(2)
		}},
		{"shardfile.encode_files_ns_per_byte", "ns/B", perByte, encodeFiles},
		{"shardfile.scrub_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			rep, err := shardfile.ScrubDir(files)
			if err == nil && rep.Damaged() {
				err = fmt.Errorf("scrub reports damage in freshly encoded files")
			}
			return int64(k+m) * shardFileBytes, err
		}},
		{"node.store_put_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			return shardFileBytes, store.Put(object0, 0, bytes.NewReader(oneShard))
		}},
		{"node.store_get_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			_, rc, err := store.Get(object0, 0)
			if err != nil {
				return 0, err
			}
			defer rc.Close()
			_, err = io.Copy(io.Discard, rc)
			return shardFileBytes, err
		}},
		{"node.http_put_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			return shardFileBytes, cli.PutShard(ctx, object0, 0, bytes.NewReader(oneShard))
		}},
		{"node.http_get_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			rc, err := cli.GetShard(ctx, object0, 0)
			if err != nil {
				return 0, err
			}
			defer rc.Close()
			_, err = io.Copy(io.Discard, rc)
			return shardFileBytes, err
		}},
		{"node.http_stat_us", "us", time.Microsecond, func() (int64, error) {
			const calls = 100
			for i := 0; i < calls; i++ {
				if _, err := cli.StatShard(ctx, object0, 0); err != nil {
					return 0, err
				}
			}
			return calls, nil
		}},
		{"cluster.place_ns_per_op", "ns", time.Nanosecond, func() (int64, error) {
			const calls = 1000
			for i := 0; i < calls; i++ {
				if _, err := gw.Place(bigKey(i)); err != nil {
					return 0, err
				}
			}
			return calls, nil
		}},
		{"cluster.put_object_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			_, err := gw.PutObject(ctx, object0, bytes.NewReader(object), bigSize, node.ClassForeground)
			return bigSize, err
		}},
		{"cluster.get_object_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			return bigSize, gw.GetObject(ctx, object0, io.Discard, node.ClassForeground)
		}},
		{"cluster.http_put_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(object))
			if err != nil {
				return 0, err
			}
			return bigSize, doDiscard(hc, req, http.StatusCreated, 0)
		}},
		{"cluster.http_get_ns_per_byte", "ns/B", perByte, func() (int64, error) {
			req, err := http.NewRequest(http.MethodGet, url, nil)
			if err != nil {
				return 0, err
			}
			return bigSize, doDiscard(hc, req, http.StatusOK, bigSize)
		}},
	}
	out := make([]rung, 0, len(rungs))
	for _, r := range rungs {
		g, err := measureRung(r.name, r.unit, r.per, r.fn)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	return out, nil
}

// doDiscard sends req and drains the response, checking its status and,
// when wantBytes is set, its length.
func doDiscard(hc *http.Client, req *http.Request, wantStatus int, wantBytes int64) error {
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus || (wantBytes > 0 && n != wantBytes) {
		return fmt.Errorf("%s %s: status %d, %d body bytes", req.Method, req.URL.Path, resp.StatusCode, n)
	}
	return nil
}

// The two chains of the north star's ladder: each rung's cost is shown
// as a multiple of the rung below it, which is where a lost factor has
// its address.
var ladderChains = [][]string{
	{"gf.mul_add4_ns_per_byte", "rs.encode_sum_ns_per_byte", "stream.encode_ns_per_byte",
		"shardfile.encode_files_ns_per_byte", "node.http_put_ns_per_byte",
		"cluster.put_object_ns_per_byte", "cluster.http_put_ns_per_byte"},
	{"gf.crc32c_ns_per_byte", "rs.reconstruct_data_ns_per_byte", "stream.decode_ns_per_byte",
		"shardfile.scrub_ns_per_byte", "node.http_get_ns_per_byte",
		"cluster.get_object_ns_per_byte", "cluster.http_get_ns_per_byte"},
}

// printLadder writes the rung table.
func printLadder(w io.Writer, rungs []rung) {
	by := map[string]rung{}
	for _, g := range rungs {
		by[g.Name] = g
	}
	fmt.Fprintf(w, "\nladder (one goroutine, one 8 MiB object, RS(%d,%d), %d KiB stripes; %d timed repeats per traced run; median ±MAD)\n",
		fixture.Defaults.K, fixture.Defaults.M, fixture.Defaults.StripeKiB, ladderRepeats)
	for i, chain := range ladderChains {
		fmt.Fprintf(w, "  %s path: gf -> rs -> stream -> stream+files -> node over loopback -> Gateway API -> gateway HTTP\n",
			[]string{"put", "get"}[i])
		for j, name := range chain {
			g := by[name]
			step := ""
			if j > 0 {
				if below := by[chain[j-1]].Median; below > 0 {
					step = fmt.Sprintf("%6.2fx the rung below", g.Median/below)
				}
			}
			fmt.Fprintf(w, "    %-38s %9.4f %-5s ±%.4f  %s\n", name, g.Median, g.Unit, g.MAD, step)
		}
	}
	fmt.Fprintln(w, "  other rungs:")
	inChain := map[string]bool{}
	for _, chain := range ladderChains {
		for _, name := range chain {
			inChain[name] = true
		}
	}
	for _, g := range rungs {
		if !inChain[g.Name] {
			fmt.Fprintf(w, "    %-38s %9.4f %-5s ±%.4f\n", g.Name, g.Median, g.Unit, g.MAD)
		}
	}
}
