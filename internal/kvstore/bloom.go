package kvstore

import "hash/fnv"

// bloomFilter is a classic k-hash Bloom filter built with double hashing
// over FNV-64a, in the style RocksDB uses for its full filters.
type bloomFilter struct {
	bits []byte
	k    uint8
}

// newBloom sizes a filter for n keys at bitsPerKey bits each.
func newBloom(n int, bitsPerKey int) *bloomFilter {
	if n < 1 {
		n = 1
	}
	nbits := n * bitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	k := uint8(float64(bitsPerKey) * 69 / 100) // ln2 ~ 0.69
	if k < 1 {
		k = 1
	}
	if k > 8 {
		k = 8
	}
	return &bloomFilter{bits: make([]byte, (nbits+7)/8), k: k}
}

func bloomHash(key []byte) (uint64, uint64) {
	h := fnv.New64a()
	h.Write(key)
	h1 := h.Sum64()
	// Second hash: FNV over the key with a salt byte, cheap and independent
	// enough for a filter.
	h2 := fnv.New64a()
	h2.Write([]byte{0x9e})
	h2.Write(key)
	return h1, h2.Sum64() | 1
}

func (f *bloomFilter) add(key []byte) {
	h1, h2 := bloomHash(key)
	n := uint64(len(f.bits)) * 8
	for i := uint8(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % n
		f.bits[bit/8] |= 1 << (bit % 8)
	}
}

// mayContain reports whether key was possibly added. False means
// definitely absent.
func (f *bloomFilter) mayContain(key []byte) bool {
	if f == nil || len(f.bits) == 0 {
		return true
	}
	h1, h2 := bloomHash(key)
	n := uint64(len(f.bits)) * 8
	for i := uint8(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % n
		if f.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// appendTo serializes the filter as [k u8][bits...] onto b.
func (f *bloomFilter) appendTo(b []byte) []byte {
	return append(append(b, f.k), f.bits...)
}

func unmarshalBloom(b []byte) *bloomFilter {
	if len(b) < 2 {
		return nil
	}
	bits := make([]byte, len(b)-1)
	copy(bits, b[1:])
	return &bloomFilter{k: b[0], bits: bits}
}
