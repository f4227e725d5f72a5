package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/vtime"
)

// The write-ahead log lives in a fixed region of the store's file. Records
// are appended sequentially; the log is logically reset by bumping the
// epoch recorded in the superblock (old-epoch records are ignored during
// replay), so a reset costs no media write.
//
// Appends never read from media: the writer keeps the image of the current
// partial tail sector in memory and always writes whole sectors, the way a
// real log writer avoids device read-modify-writes. Every append composes
// its sectors in one reused image whose front always holds that tail; the
// file copies what it is handed, so nothing else retains the image.

const (
	walRecordMagic = 0x57414C52 // "WALR"
	// Record header: magic u32, crc u32, epoch u64, seqBase u64,
	// count u32, payloadLen u32.
	walHeaderSize = 32
	walSectorSize = 4096 // must match simdisk.SectorSize
)

// errWALFull signals that the region cannot fit the next record; the store
// responds by flushing the memtable, which resets the log.
var errWALFull = errors.New("kvstore: wal full")

type wal struct {
	file   File
	off    int64 // region start (bytes, sector aligned)
	length int64 // region length (bytes, sector aligned)

	epoch    uint64
	writeOff int64 // next byte to write, relative to region start
	// img[:writeOff%walSectorSize] is the current partial sector as it
	// is on media; the rest is scratch for the next append.
	img []byte
}

func newWAL(file File, off, length int64) *wal {
	if off%walSectorSize != 0 || length%walSectorSize != 0 || length <= walSectorSize {
		panic("kvstore: wal region must be sector aligned and non-trivial")
	}
	return &wal{file: file, off: off, length: length}
}

// reset starts a new epoch with an empty log. Callers persist the epoch in
// the superblock.
func (w *wal) reset(epoch uint64) {
	w.epoch = epoch
	w.writeOff = 0
}

// fits reports whether a record with the given payload fits the region.
func (w *wal) fits(payloadLen int) bool {
	return w.writeOff+int64(walHeaderSize+payloadLen) <= w.length
}

// append writes one record and returns its durability completion time.
func (w *wal) append(at vtime.Time, seqBase uint64, count uint32, payload []byte) (vtime.Time, error) {
	if !w.fits(len(payload)) {
		return at, errWALFull
	}

	// Compose whole sectors: remembered tail + record, padded to a sector
	// boundary so the device never has to read-modify-write.
	tailLen := int(w.writeOff % walSectorSize)
	recEnd := tailLen + walHeaderSize + len(payload)
	imgLen := (recEnd + walSectorSize - 1) / walSectorSize * walSectorSize
	if cap(w.img) < imgLen {
		w.img = append(make([]byte, 0, imgLen), w.img[:tailLen]...)
	}
	img := w.img[:imgLen]
	rec := img[tailLen:recEnd]
	binary.LittleEndian.PutUint32(rec[0:4], walRecordMagic)
	binary.LittleEndian.PutUint64(rec[8:16], w.epoch)
	binary.LittleEndian.PutUint64(rec[16:24], seqBase)
	binary.LittleEndian.PutUint32(rec[24:28], count)
	binary.LittleEndian.PutUint32(rec[28:32], uint32(len(payload)))
	copy(rec[walHeaderSize:], payload)
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(rec[8:]))
	clear(img[recEnd:])

	end, err := w.file.WriteAt(at, img, w.off+w.writeOff-int64(tailLen))
	if err != nil {
		return at, err
	}
	w.writeOff += int64(len(rec))
	copy(img, img[imgLen-walSectorSize:][:w.writeOff%walSectorSize])
	return end, nil
}

// replayFunc receives each valid record's entries in order. The entries
// are views of replay's region buffer and the slice is reused for the next
// record: fn copies what it keeps.
type replayFunc func(seqBase uint64, entries []memEntry) error

// replay scans the region for records of the given epoch, invoking fn for
// each, and leaves the wal positioned for further appends. It reads the
// whole region in one bulk read (recovery-time cost).
func (w *wal) replay(c *cursor, epoch uint64, fn replayFunc) error {
	w.epoch = epoch
	buf := make([]byte, w.length)
	end, err := w.file.ReadAt(c.at, buf, w.off)
	if err != nil {
		return err
	}
	c.advance(end)

	off := int64(0)
	var entries []memEntry
	for {
		if off+walHeaderSize > w.length {
			break
		}
		h := buf[off:]
		if binary.LittleEndian.Uint32(h[0:4]) != walRecordMagic {
			break
		}
		recEpoch := binary.LittleEndian.Uint64(h[8:16])
		if recEpoch != epoch {
			break
		}
		seqBase := binary.LittleEndian.Uint64(h[16:24])
		count := binary.LittleEndian.Uint32(h[24:28])
		plen := int64(binary.LittleEndian.Uint32(h[28:32]))
		recLen := int64(walHeaderSize) + plen
		if off+recLen > w.length {
			break
		}
		wantCRC := binary.LittleEndian.Uint32(h[4:8])
		if crc32.ChecksumIEEE(buf[off+8:off+recLen]) != wantCRC {
			break // torn record: the batch never committed
		}
		payload := buf[off+walHeaderSize : off+recLen]
		entries = entries[:0]
		p := 0
		bad := false
		for i := uint32(0); i < count; i++ {
			e, n, err := decodeEntry(payload[p:])
			if err != nil {
				bad = true
				break
			}
			e.seq = seqBase + uint64(i)
			p += n
			entries = append(entries, e)
		}
		if bad {
			break
		}
		if err := fn(seqBase, entries); err != nil {
			return err
		}
		off += recLen
	}
	w.writeOff = off
	tailLen := off % walSectorSize
	w.img = append(w.img[:0], buf[off-tailLen:off]...)
	return nil
}

func (w *wal) String() string {
	return fmt.Sprintf("wal{epoch=%d off=%d/%d}", w.epoch, w.writeOff, w.length)
}
