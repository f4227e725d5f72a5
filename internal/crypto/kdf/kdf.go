// Package kdf provides the key-derivation primitives the LUKS2-style
// container needs: PBKDF2-HMAC-SHA256 (RFC 2898, the standard library's
// crypto/pbkdf2) for passphrase stretching and a LUKS-style
// anti-forensic splitter that inflates key material across many diffused
// stripes so partial disk remanence cannot recover a revoked key.
package kdf

import (
	"crypto/pbkdf2"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// PBKDF2 derives keyLen bytes from secret and salt with PBKDF2-HMAC-SHA256.
// An iteration count below one is an error: crypto/pbkdf2 would run one
// round.
func PBKDF2(secret, salt []byte, iter, keyLen int) ([]byte, error) {
	if iter < 1 {
		return nil, fmt.Errorf("kdf: %d PBKDF2 iterations", iter)
	}
	// string(secret) makes a copy of the key material that cannot be
	// cleared. The HMAC pads derived from it cannot be cleared either.
	return pbkdf2.Key(sha256.New, string(secret), salt, iter, keyLen)
}

// diffuse applies the LUKS AF hash diffusion to a buffer: each SHA-256
// sized window is replaced by H(index || window), spreading every bit.
func diffuse(buf []byte) {
	h := sha256.New()
	var idx [4]byte
	for off, i := 0, 0; off < len(buf); off, i = off+sha256.Size, i+1 {
		end := off + sha256.Size
		if end > len(buf) {
			end = len(buf)
		}
		h.Reset()
		binary.BigEndian.PutUint32(idx[:], uint32(i))
		h.Write(idx[:])
		h.Write(buf[off:end])
		sum := h.Sum(nil)
		copy(buf[off:end], sum)
	}
}

// AFSplit expands key into stripes blocks of key material such that every
// stripe is required to reconstruct the key. The output is
// stripes*len(key) bytes.
func AFSplit(key []byte, stripes int) ([]byte, error) {
	if stripes < 2 {
		return nil, errors.New("kdf: need at least 2 stripes")
	}
	n := len(key)
	out := make([]byte, stripes*n)
	d := make([]byte, n)
	for s := 0; s < stripes-1; s++ {
		stripe := out[s*n : (s+1)*n]
		if _, err := rand.Read(stripe); err != nil {
			return nil, err
		}
		for i := range d {
			d[i] ^= stripe[i]
		}
		diffuse(d)
	}
	last := out[(stripes-1)*n:]
	for i := range last {
		last[i] = d[i] ^ key[i]
	}
	return out, nil
}

// AFMerge reconstructs the key from AFSplit output.
func AFMerge(split []byte, keyLen, stripes int) ([]byte, error) {
	if stripes < 2 || keyLen < 1 || len(split) != stripes*keyLen {
		return nil, fmt.Errorf("kdf: bad AF geometry (%d bytes, %d stripes, key %d)", len(split), stripes, keyLen)
	}
	d := make([]byte, keyLen)
	for s := 0; s < stripes-1; s++ {
		stripe := split[s*keyLen : (s+1)*keyLen]
		for i := range d {
			d[i] ^= stripe[i]
		}
		diffuse(d)
	}
	key := make([]byte, keyLen)
	last := split[(stripes-1)*keyLen:]
	for i := range key {
		key[i] = d[i] ^ last[i]
	}
	return key, nil
}
