package main

import (
	"sync"

	"repro/internal/core"
	"repro/internal/fio"
)

const blockBytes = core.DefaultBlockSize

// verifyImage reads the whole image back and counts the 4 KiB blocks
// that hold neither the precondition pattern for their offset nor, when
// the workload writes, one of the job fill patterns at their position
// inside an IO. Racing last-writers make the winning job
// non-deterministic; the candidate set is not. A read that fails
// (an authenticated scheme rejecting a block) is retried block by block
// so the count stays exact.
func verifyImage(target fio.Target, w workload, jobs int) (bad int64) {
	const step = 1 << 20
	size := target.Size()
	offsets := make(chan int64)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, step)
			var local int64
			for off := range offsets {
				n := min(int64(step), size-off)
				if _, err := target.ReadAt(0, buf[:n], off); err != nil {
					for b := int64(0); b < n; b += blockBytes {
						if _, err := target.ReadAt(0, buf[b:b+blockBytes], off+b); err != nil || !blockOK(buf[b:b+blockBytes], off+b, w, jobs) {
							local++
						}
					}
					continue
				}
				for b := int64(0); b < n; b += blockBytes {
					if !blockOK(buf[b:b+blockBytes], off+b, w, jobs) {
						local++
					}
				}
			}
			mu.Lock()
			bad += local
			mu.Unlock()
		}()
	}
	for off := int64(0); off < size; off += step {
		offsets <- off
	}
	close(offsets)
	wg.Wait()
	return bad
}

// blockOK reports whether the block at image offset off is one the run
// could have left there. The two patterns are fio's own: Precondition
// fills 1 MiB buffers with byte(i*131)|1, and job j of fio.Run fills its
// IO buffer with byte(j+1) ^ byte(i*131>>3).
func blockOK(blk []byte, off int64, w workload, jobs int) bool {
	pre := int(off % (1 << 20))
	ok := true
	for k, got := range blk {
		if got != byte((pre+k)*131)|1 {
			ok = false
			break
		}
	}
	if ok || w.pattern.Reads() {
		return ok
	}
	pos := int(off % w.blockSize)
	fill := blk[0] ^ byte(pos*131>>3)
	if fill < 1 || int(fill) > jobs {
		return false
	}
	for k, got := range blk {
		if got != fill^byte((pos+k)*131>>3) {
			return false
		}
	}
	return true
}
