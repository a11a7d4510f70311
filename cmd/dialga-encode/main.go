// Command dialga-encode is a real file erasure-coding tool built on the
// repository's streaming RS pipeline: it chunks a file into stripes,
// encodes them on a pool of GOMAXPROCS workers into k data + m parity
// shard files, and reconstructs the original file from any k surviving
// shards — all in O(stripe) memory, so files far larger than RAM
// round-trip.
//
//	dialga-encode -mode encode -k 8 -m 4 -in data.bin -dir shards/
//	dialga-encode -mode decode -k 8 -m 4 -out restored.bin -dir shards/
//	dialga-encode -mode verify -dir shards/
//
// Shards are named shard.000 .. shard.(k+m-1); delete up to m of them
// and decode still succeeds. Each shard file starts with a self-
// describing v3 header (geometry, shard index, stripe count, file
// size, checksum algorithm, header self-CRC — see internal/shardfile),
// and every stripe block carries a CRC-32C trailer. Decode and verify
// also read the v4 shards a cluster put writes, whose header adds the
// put's generation. Decoding with mismatched -k/-m flags, a shard
// copied from another encoding or left by an older put, a corrupted
// header, or a truncated shard file fails loudly; a shard block whose
// trailer does not verify is demoted to an erasure for that stripe and
// healed through reconstruction. A shard file in the retired
// trailer-less v2 framing is refused by name, like any other header
// that does not parse.
//
// -mode verify scrubs a shard directory without decoding it: it checks
// every shard's header (self-CRC, slot index, and agreement with the
// set's encoding, generation included), its size and each block's
// CRC-32C trailer, names each damaged shard and the stripes whose
// blocks failed, and exits 1 on any damage, a missing shard included.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"dialga/internal/rs"
	"dialga/internal/shardfile"
	"dialga/internal/stream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it parses args, writes reports to
// stdout and diagnostics to stderr, and returns the exit status, so
// tests can drive it directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dialga-encode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode   = fs.String("mode", "", "encode, decode or verify")
		k      = fs.Int("k", 8, "data shards")
		m      = fs.Int("m", 4, "parity shards")
		in     = fs.String("in", "", "input file (encode)")
		out    = fs.String("out", "", "output file (decode)")
		dir    = fs.String("dir", "shards", "shard directory")
		stripe = fs.Int("stripe", stream.DefaultStripeSize, "stripe size in bytes (data payload per stripe)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var err error
	switch *mode {
	case "encode":
		err = encode(stdout, *k, *m, *in, *dir, *stripe)
	case "decode":
		err = decode(stdout, *k, *m, *out, *dir)
	case "verify":
		var damaged bool
		damaged, err = verifyDir(*dir, stdout)
		if err == nil && damaged {
			return 1
		}
	default:
		fs.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "dialga-encode:", err)
		return 1
	}
	return 0
}

func shardPath(dir string, i int) string {
	return shardfile.Path(dir, i)
}

// encode writes in's k+m shard files into dir and reports on w.
func encode(w io.Writer, k, m int, in, dir string, stripeSize int) error {
	if in == "" {
		return fmt.Errorf("encode needs -in")
	}
	code, err := rs.New(k, m)
	if err != nil {
		return err
	}
	enc, err := stream.NewEncoder(stream.Options{Codec: code, StripeSize: stripeSize})
	if err != nil {
		return err
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	fileSize := uint64(fi.Size())
	stripes := (fileSize + uint64(enc.StripeSize()) - 1) / uint64(enc.StripeSize())

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := make([]*os.File, k+m)
	writers := make([]io.Writer, k+m)
	bws := make([]*bufio.Writer, k+m)
	defer func() {
		for _, sf := range files {
			if sf != nil {
				sf.Close()
			}
		}
	}()
	for i := range files {
		sf, err := os.Create(shardPath(dir, i))
		if err != nil {
			return err
		}
		files[i] = sf
		hdr := shardfile.Header{
			Version: shardfile.VersionV3,
			K:       uint32(k), M: uint32(m), Index: uint32(i),
			ShardSize: uint32(enc.ShardSize()), StripeCount: stripes, FileSize: fileSize,
			Algo: shardfile.AlgoCRC32C,
		}
		if _, err := sf.Write(hdr.Marshal()); err != nil {
			return err
		}
		bws[i] = bufio.NewWriter(sf)
		writers[i] = bws[i]
	}

	if err := enc.Encode(context.Background(), bufio.NewReaderSize(f, 1<<20), writers); err != nil {
		return err
	}
	st := enc.Stats()
	if st.BytesIn != fileSize || st.Stripes != stripes {
		return fmt.Errorf("input changed during encode: read %d bytes / %d stripes, expected %d / %d",
			st.BytesIn, st.Stripes, fileSize, stripes)
	}
	for i := range files {
		if err := bws[i].Flush(); err != nil {
			return err
		}
		if err := files[i].Close(); err != nil {
			return err
		}
		files[i] = nil
	}
	fmt.Fprintf(w, "encoded %d bytes into %d data + %d parity shards (%d stripes of %d bytes/shard + crc32c) in %s\n",
		fileSize, k, m, stripes, enc.ShardSize(), dir)
	return nil
}

// openShards opens and validates every present shard file, returning
// one reader per stripe-order slot (nil = missing shard), the
// agreed-upon header, and a closer for the opened files. A file that
// shardfile.Open does not judge a whole shard of its slot (a header
// that does not parse, a v2 one included, names another slot, or a
// truncated or ragged file) is an error, and so are mismatched flags
// and shards of two encodings (another geometry, size or put
// generation: see shardfile.Header.SameEncoding). Only a file that
// does not exist is a missing shard.
func openShards(k, m int, dir string) (readers []io.Reader, agreed shardfile.Header, present int, closeAll func(), err error) {
	readers = make([]io.Reader, k+m)
	var files []*os.File
	closeAll = func() {
		for _, f := range files {
			f.Close()
		}
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()
	for i := 0; i < k+m; i++ {
		h, f, status, detail := shardfile.Open(shardPath(dir, i), i)
		switch status {
		case shardfile.ShardOK:
		case shardfile.ShardMissing:
			continue
		default:
			return nil, agreed, 0, closeAll, fmt.Errorf("shard %d: %s", i, detail)
		}
		files = append(files, f)
		if int(h.K) != k || int(h.M) != m {
			return nil, agreed, 0, closeAll, fmt.Errorf("shard %d: encoded with k=%d m=%d, flags say k=%d m=%d",
				i, h.K, h.M, k, m)
		}
		if present == 0 {
			agreed = h
		} else if !h.SameEncoding(agreed) {
			return nil, agreed, 0, closeAll, fmt.Errorf("shard %d: header disagrees with shard %d (mixed encodings or a stale shard?)", i, agreed.Index)
		}
		readers[i] = bufio.NewReaderSize(f, 1<<20)
		present++
	}
	if present < k {
		return nil, agreed, 0, closeAll, fmt.Errorf("only %d shards present, need at least %d", present, k)
	}
	return readers, agreed, present, closeAll, nil
}

// decode rebuilds the original file from dir into out and reports on
// w.
func decode(w io.Writer, k, m int, out, dir string) error {
	if out == "" {
		return fmt.Errorf("decode needs -out")
	}
	code, err := rs.New(k, m)
	if err != nil {
		return err
	}
	readers, hdr, present, closeShards, err := openShards(k, m, dir)
	if err != nil {
		return err
	}
	defer closeShards()
	dec, err := stream.NewDecoder(stream.Options{Codec: code, StripeSize: int(hdr.ShardSize) * k})
	if err != nil {
		return err
	}
	if dec.ShardSize() != int(hdr.ShardSize) && hdr.StripeCount > 0 {
		return fmt.Errorf("shard size %d does not fit geometry k=%d", hdr.ShardSize, k)
	}
	of, err := os.Create(out)
	if err != nil {
		return err
	}
	defer of.Close()
	bw := bufio.NewWriterSize(of, 1<<20)
	if err := dec.Decode(context.Background(), readers, bw, int64(hdr.FileSize)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := of.Close(); err != nil {
		return err
	}
	st := dec.Stats()
	fmt.Fprintf(w, "reconstructed %d bytes from %d shards (%d stripes, %d reconstructed) into %s\n",
		hdr.FileSize, present, st.Stripes, st.Reconstructed, out)
	if st.ShardsCorrupted > 0 {
		fmt.Fprintf(w, "healed %d corrupt shard blocks across %d stripes\n", st.ShardsCorrupted, st.StripesHealed)
	}
	return nil
}
