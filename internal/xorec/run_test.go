package xorec

// run executes sched on bytes: blocks 0..len(data)-1 are data, the rest
// out, and every block is W packets of len/W bytes. It is the byte-level
// XOR codec a schedule describes, which the simulator only replays the
// accesses of.
func run(sched Schedule, data, out [][]byte) {
	ps := len(data[0]) / W
	packet := func(block, bit int) []byte {
		b := data
		if block >= len(data) {
			b, block = out, block-len(data)
		}
		return b[block][bit*ps : (bit+1)*ps]
	}
	for _, op := range sched {
		src, dst := packet(op.SrcBlock, op.SrcBit), packet(op.DstBlock, op.DstBit)
		if op.Copy {
			copy(dst, src)
			continue
		}
		for i := range dst {
			dst[i] ^= src[i]
		}
	}
}

// blocks returns n zeroed blocks of size bytes.
func blocks(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
	}
	return out
}

// encode returns the parity e's schedule computes from data.
func encode(e *Encoder, data [][]byte) [][]byte {
	parity := blocks(e.m, len(data[0]))
	run(e.schedule, data, parity)
	return parity
}

// decode rebuilds the nil entries of stripe (k+m blocks in stripe
// order, nil where missing) with e's decode schedule for them.
func decode(e *Encoder, stripe [][]byte) error {
	var missing []int
	var survivors [][]byte
	for i, b := range stripe {
		if b == nil {
			missing = append(missing, i)
		} else if len(survivors) < e.k {
			survivors = append(survivors, b)
		}
	}
	sched, err := e.DecodeSchedule(missing)
	if err != nil {
		return err
	}
	out := blocks(len(missing), len(survivors[0]))
	run(sched, survivors, out)
	for i, idx := range missing {
		stripe[idx] = out[i]
	}
	return nil
}

// xorCount is the number of non-copy operations in s.
func xorCount(s Schedule) int {
	n := 0
	for _, op := range s {
		if !op.Copy {
			n++
		}
	}
	return n
}
