package memsim

import "math/bits"

// bitset is a fixed-capacity set of process ids, used to track cached
// copies under the CC model and the runnable processes of a run. Ids
// 0..63 live inline, so machines with at most 64 processes allocate
// nothing for it. It keeps no member count, which holds it to 32 bytes
// inside every variable; len counts on demand.
type bitset struct {
	lo uint64
	hi []uint64 // ids 64 and up
}

// resize empties the set and sizes it for ids 0..n-1, reusing its
// words where they suffice.
func (b *bitset) resize(n int) {
	b.lo = 0
	w := 0
	if n > 64 {
		w = (n - 1) / 64
	}
	if cap(b.hi) < w {
		b.hi = make([]uint64, w)
		return
	}
	b.hi = b.hi[:w]
	clear(b.hi)
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
	*w |= m
}

func (b *bitset) remove(i int) {
	w, m := &b.lo, uint64(1)<<(uint(i)&63)
	if i >= 64 {
		w = &b.hi[i>>6-1]
	}
	*w &^= m
}

// len returns the number of members.
func (b *bitset) len() int {
	n := bits.OnesCount64(b.lo)
	for _, w := range b.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// appendTo appends the members to dst in ascending order, at a cost of
// one step per 64-id word plus one per member.
func (b *bitset) appendTo(dst []int) []int {
	dst = appendWord(dst, b.lo, 0)
	for i, w := range b.hi {
		dst = appendWord(dst, w, (i+1)*64)
	}
	return dst
}

func appendWord(dst []int, w uint64, base int) []int {
	for ; w != 0; w &= w - 1 {
		dst = append(dst, base+bits.TrailingZeros64(w))
	}
	return dst
}

// hasOnly reports whether the set is exactly {i}.
func (b *bitset) hasOnly(i int) bool {
	return b.has(i) && b.len() == 1
}

func (b *bitset) clear() {
	b.lo = 0
	clear(b.hi)
}
