package kdf

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// Published PBKDF2-HMAC-SHA256 test vectors (RFC 7914 §11 / common
// reference values). Every slot key, digest, KEK and epoch check a LUKS
// container holds comes from PBKDF2.
func TestPBKDF2Vectors(t *testing.T) {
	cases := []struct {
		password, salt string
		iter, keyLen   int
		want           string
	}{
		{"password", "salt", 1, 32,
			"120fb6cffcf8b32c43e7225256c4f837a86548c92ccc35480805987cb70be17b"},
		{"password", "salt", 2, 32,
			"ae4d0c95af6b46d32d0adff928f06dd02a303f8ef3c251dfd6e2d85a95474c43"},
		{"password", "salt", 4096, 32,
			"c5e478d59288c841aa530db6845c4c8d962893a001ce4e11a4963873aa98134a"},
		{"passwd", "salt", 1, 64,
			"55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc" +
				"49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783"},
	}
	for i, tc := range cases {
		got, err := PBKDF2([]byte(tc.password), []byte(tc.salt), tc.iter, tc.keyLen)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, _ := hex.DecodeString(tc.want)
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d:\n got %x\nwant %x", i, got, want)
		}
	}
}

// Output longer than one hash block exercises multi-block derivation.
// The bytes were recorded from the hand-rolled implementation that
// crypto/pbkdf2 replaced.
func TestPBKDF2LongOutput(t *testing.T) {
	want, _ := hex.DecodeString(
		"72aecd14244887c316e24019c7e020b58888f029861490804d36e20b42d9321a" +
			"ba841f3fcca0e61f4c81d15c8b03938d27f1eb6ae8bf3457d683fc5ba0c1d696" +
			"4d2a404b758a061c89b60a617a7c23e244bf68a4808119939483804644408db4" +
			"fdb9fca7")
	out, err := PBKDF2([]byte("pw"), []byte("salt"), 10, 100)
	if err != nil || !bytes.Equal(out, want) {
		t.Fatalf("got %x, %v\nwant %x", out, err, want)
	}
	// Prefix property: a shorter request is a prefix of a longer one.
	short, err := PBKDF2([]byte("pw"), []byte("salt"), 10, 32)
	if err != nil || !bytes.Equal(out[:32], short) {
		t.Fatalf("prefix property violated: %x, %v", short, err)
	}
}

func TestAFSplitMergeRoundTrip(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	split, err := AFSplit(key, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(split) != 4000*len(key) {
		t.Fatalf("split length %d", len(split))
	}
	merged, err := AFMerge(split, len(key), 4000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, key) {
		t.Fatal("merge did not recover key")
	}
}

func TestAFAntiForensicProperty(t *testing.T) {
	// Corrupting any single stripe destroys the key.
	key := []byte("superSecretMasterKey00000000000!")
	split, err := AFSplit(key, 8)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 8; s++ {
		mangled := append([]byte(nil), split...)
		mangled[s*len(key)+5] ^= 0xFF
		merged, err := AFMerge(mangled, len(key), 8)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(merged, key) {
			t.Fatalf("stripe %d corruption did not destroy key", s)
		}
	}
}

func TestAFGeometryValidation(t *testing.T) {
	if _, err := AFSplit([]byte("k"), 1); err == nil {
		t.Fatal("1 stripe accepted")
	}
	if _, err := AFMerge(make([]byte, 10), 3, 4); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

func TestAFSplitRandomized(t *testing.T) {
	// Two splits of the same key differ (fresh randomness) but both merge.
	key := bytes.Repeat([]byte{7}, 32)
	a, _ := AFSplit(key, 4)
	b, _ := AFSplit(key, 4)
	if bytes.Equal(a, b) {
		t.Fatal("splits should be randomized")
	}
	ma, _ := AFMerge(a, 32, 4)
	mb, _ := AFMerge(b, 32, 4)
	if !bytes.Equal(ma, key) || !bytes.Equal(mb, key) {
		t.Fatal("merge failed")
	}
}

func TestAFProperty(t *testing.T) {
	f := func(seed int64, stripes uint8) bool {
		n := int(stripes)%30 + 2
		key := make([]byte, 32)
		for i := range key {
			key[i] = byte(seed >> (i % 8 * 8))
		}
		split, err := AFSplit(key, n)
		if err != nil {
			return false
		}
		merged, err := AFMerge(split, 32, n)
		if err != nil {
			return false
		}
		return bytes.Equal(merged, key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
