package memsim

// bitset is a fixed-capacity set of process ids, used to track cached
// copies under the CC model. Ids 0..63 live inline, so machines with at
// most 64 processes allocate nothing for it.
type bitset struct {
	lo    uint64
	hi    []uint64 // ids 64 and up
	count int
}

func newBitset(n int) bitset {
	if n <= 64 {
		return bitset{}
	}
	return bitset{hi: make([]uint64, (n-1)/64)}
}

func (b *bitset) has(i int) bool {
	m := uint64(1) << (uint(i) & 63)
	if i < 64 {
		return b.lo&m != 0
	}
	return b.hi[i>>6-1]&m != 0
}

func (b *bitset) add(i int) {
	w, m := &b.lo, uint64(1)<<(uint(i)&63)
	if i >= 64 {
		w = &b.hi[i>>6-1]
	}
	if *w&m == 0 {
		*w |= m
		b.count++
	}
}

// hasOnly reports whether the set is exactly {i}.
func (b *bitset) hasOnly(i int) bool {
	return b.count == 1 && b.has(i)
}

func (b *bitset) clear() {
	if b.count == 0 {
		return
	}
	b.lo = 0
	clear(b.hi)
	b.count = 0
}
