// Package core seeds vtimeonly violations and clean counterparts in a
// package named like a simulation package.
package core

import "time"

func badNow() int64 {
	return time.Now().UnixNano() // want "time.Now reads the host clock"
}

func badSleep() {
	time.Sleep(time.Millisecond) // want "time.Sleep reads the host clock"
}

func okPureTypes(d time.Duration) time.Duration {
	return 2 * d
}

func okIgnoredWithReason() int64 {
	//vetrepo:ignore vtimeonly harness-style wall-clock check exercised by the ignore machinery
	return time.Now().UnixNano()
}

func badFanOut(legs []func()) {
	for _, leg := range legs {
		go leg() // want "virtual-time overlap is vtime.Join"
	}
}

func okHostWork(jobs chan func()) {
	//vetrepo:ignore vtimeonly cipher workers do host work and charge no virtual time
	go func() {
		for job := range jobs {
			job()
		}
	}()
}
