package kvstore

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

// FNV-64a's parameters (hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// bloomHash returns FNV-64a of key and, as the second hash, FNV-64a of
// key behind a salt byte (cheap and independent enough for a filter),
// forced odd. Both are computed in one pass over the key; the filters on
// media depend on these exact values.
func bloomHash(key []byte) (uint64, uint64) {
	h1, h2 := uint64(fnvOffset64), uint64(fnvOffset64)
	h2 = (h2 ^ 0x9e) * fnvPrime64
	for _, c := range key {
		h1 = (h1 ^ uint64(c)) * fnvPrime64
		h2 = (h2 ^ uint64(c)) * fnvPrime64
	}
	return h1, h2 | 1
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
