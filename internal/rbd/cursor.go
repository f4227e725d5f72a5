package rbd

// cursor.go is the on-disk half of the walker kernel (walker.go): one
// JSON record per walker under a reserved key in the image header's
// OMAP, written after every unit of work so a crashed client resumes
// instead of restarting. The kernel is the only non-test caller, so
// every walker speaks exactly the same on-disk protocol.

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/rados"
	"repro/internal/vtime"
)

// ErrCorruptCursor reports a walker-cursor record whose stored bytes do
// not decode — truncated or scribbled OMAP state. The kernel treats it
// as "a walk was in flight, its position is lost": it restarts the walk
// from the beginning (which is safe, every walk is idempotent) rather
// than fail the resume or, worse, trust a half-read cursor.
var ErrCorruptCursor = errors.New("rbd: corrupt walker cursor")

// LoadCursor reads the walker cursor stored under key in the image
// header's OMAP into v, reporting found=false when no record exists.
// A record that exists but does not decode returns an error wrapping
// ErrCorruptCursor.
func (img *Image) LoadCursor(at vtime.Time, key string, v any) (bool, vtime.Time, error) {
	res, end, err := img.OperateHeader(at, []rados.Op{{
		Kind: rados.OpOmapGetRange,
		Key:  []byte(key),
		Key2: []byte(key + "\x00"),
	}})
	if err != nil {
		return false, at, err
	}
	if res[0].Status != rados.StatusOK || len(res[0].Pairs) == 0 {
		return false, end, nil
	}
	if err := json.Unmarshal(res[0].Pairs[0].Value, v); err != nil {
		return false, at, fmt.Errorf("%w %q: %v", ErrCorruptCursor, key, err)
	}
	return true, end, nil
}

// SaveCursor persists v as the walker cursor under key.
func (img *Image) SaveCursor(at vtime.Time, key string, v any) (vtime.Time, error) {
	blob, err := json.Marshal(v)
	if err != nil {
		return at, err
	}
	res, end, err := img.OperateHeader(at, []rados.Op{{
		Kind:  rados.OpOmapSet,
		Pairs: []rados.Pair{{Key: []byte(key), Value: blob}},
	}})
	if err != nil {
		return at, err
	}
	return end, res[0].Status.Err()
}

// ClearCursor removes the walker cursor under key (idempotent).
func (img *Image) ClearCursor(at vtime.Time, key string) (vtime.Time, error) {
	res, end, err := img.OperateHeader(at, []rados.Op{{
		Kind:  rados.OpOmapDel,
		Pairs: []rados.Pair{{Key: []byte(key)}},
	}})
	if err != nil {
		return at, err
	}
	return end, res[0].Status.Err()
}
