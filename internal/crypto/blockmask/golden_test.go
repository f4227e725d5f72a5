package blockmask_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"testing"

	"repro/internal/crypto/eme"
	"repro/internal/crypto/xts"
)

// stream is a deterministic corpus: SHA-256 of label and a counter,
// block after block.
func stream(label string, n int) []byte {
	out := make([]byte, 0, n+sha256.Size)
	var ctr [8]byte
	for i := uint64(0); len(out) < n; i++ {
		binary.LittleEndian.PutUint64(ctr[:], i)
		h := sha256.New()
		h.Write([]byte(label))
		h.Write(ctr[:])
		out = h.Sum(out)
	}
	return out[:n]
}

// The lengths cross every stride of the AES primitive (eight blocks and
// a tail), the 4 KiB sector and, for xts, the ciphertext stealing
// tails.
var (
	xtsLengths = []int{16, 32, 48, 112, 128, 144, 256, 496, 512, 4080, 4096, 4112, 8192, 12288, 17, 100, 4097}
	emeLengths = []int{16, 32, 48, 112, 128, 144, 512, 2048, 4080, 4096, 8176, 8192}
)

// sealGolden is the SHA-256 over every output of one cipher, key size
// and direction, recorded from the ciphers as they stood before the
// multi-block AES primitive: no ciphertext byte may change.
var sealGolden = map[string]string{
	"xts-32/enc": "8ea318616fdf32d0a01795ca6cddab952322d756031424e442f47ed8ab74bd64",
	"xts-32/dec": "fe56f5efb0975484986503cf9dd2930d8975a99392cde42a6f0ff538bd7d9b95",
	"xts-64/enc": "5a76de48fdf946c61153e756b520909dcf4820a26b010dcca5cc2e136d792920",
	"xts-64/dec": "2f4e25fa74613228d5e16e8941743636d20d71b414d042f48ae99c1504498b21",
	"eme-16/enc": "0f49a145e5110d51804f2ed59dd77cdc393b9d269f1fdc6cd6e7fb3a562ca223",
	"eme-16/dec": "298367f03a93434f20afbbe2a5a5f1c5c886e44e44253d718b6af62861ce380d",
	"eme-24/enc": "795bbf4dff7d160fe7ce48de1c720af9fd44a255b1f6b198e22d70390e0ad5f8",
	"eme-24/dec": "a2a45b7bf6bcc7cc307b2dee8e2a74fee192bf0da80d9c07123c11f99fb79143",
	"eme-32/enc": "4f0d2f87bb6c89f040f3d3e91ab8e20402e6e376412a30adb512b9f8cbdce30b",
	"eme-32/dec": "2f37eb8d4ec8f6754e5ab5972e009c8cf27c330638585791f7a9bf7d7cb16e28",
}

func TestSealGolden(t *testing.T) {
	type op func(dst, src []byte, tweak [16]byte) error
	run := func(name string, lengths []int, f op) {
		h := sha256.New()
		for _, n := range lengths {
			label := name + "/" + strconv.Itoa(n)
			var tweak [16]byte
			copy(tweak[:], stream("tweak"+label, 16))
			src := stream("data"+label, n)
			dst := make([]byte, n)
			if err := f(dst, src, tweak); err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			h.Write(dst)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != sealGolden[name] {
			t.Errorf("%s: output hash %s, want %s", name, got, sealGolden[name])
		}
	}
	for _, size := range []int{32, 64} {
		c, err := xts.NewCipher(stream("xts key", size))
		if err != nil {
			t.Fatal(err)
		}
		prefix := "xts-" + strconv.Itoa(size)
		run(prefix+"/enc", xtsLengths, c.Encrypt)
		run(prefix+"/dec", xtsLengths, c.Decrypt)
	}
	for _, size := range []int{16, 24, 32} {
		c, err := eme.New(stream("eme key", size))
		if err != nil {
			t.Fatal(err)
		}
		prefix := "eme-" + strconv.Itoa(size)
		run(prefix+"/enc", emeLengths, c.Encrypt)
		run(prefix+"/dec", emeLengths, c.Decrypt)
	}
}
