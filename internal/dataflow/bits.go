package dataflow

// Bits is a persistent-style bitset fact: operations return fresh sets and
// never mutate their receivers, as the solver requires of facts. The nil
// Bits is the empty set (and the Bottom of set-union instances).
type Bits []uint64

// Get reports whether bit i is set.
func (b Bits) Get(i int) bool {
	w := i / 64
	return w < len(b) && b[w]&(1<<(uint(i)%64)) != 0
}

// With returns a copy of b with bit i set.
func (b Bits) With(i int) Bits {
	w := i / 64
	n := len(b)
	if w >= n {
		n = w + 1
	}
	out := make(Bits, n)
	copy(out, b)
	out[w] |= 1 << (uint(i) % 64)
	return out
}

// Union returns b ∪ o. When one side is empty the other is returned as is;
// otherwise the result is a fresh set.
func (b Bits) Union(o Bits) Bits {
	if len(o) == 0 {
		return b
	}
	if len(b) == 0 {
		return o
	}
	n := len(b)
	if len(o) > n {
		n = len(o)
	}
	out := make(Bits, n)
	copy(out, b)
	for i, w := range o {
		out[i] |= w
	}
	return out
}

// AndNot returns b − o.
func (b Bits) AndNot(o Bits) Bits {
	if len(b) == 0 {
		return nil
	}
	out := make(Bits, len(b))
	copy(out, b)
	for i := range out {
		if i < len(o) {
			out[i] &^= o[i]
		}
	}
	return out
}

// Equal reports set equality (trailing zero words are insignificant).
func (b Bits) Equal(o Bits) bool {
	long, short := b, o
	if len(o) > len(b) {
		long, short = o, b
	}
	for i, w := range long {
		var ow uint64
		if i < len(short) {
			ow = short[i]
		}
		if w != ow {
			return false
		}
	}
	return true
}

// Ones returns the set members in increasing order.
func (b Bits) Ones() []int {
	var out []int
	for i, w := range b {
		for j := 0; j < 64; j++ {
			if w&(1<<uint(j)) != 0 {
				out = append(out, i*64+j)
			}
		}
	}
	return out
}
