// Package fio is the one simulation package exempt from the goroutine
// ban — its jobs are the workload's own concurrency — while the clock
// ban still applies.
package fio

import "time"

func okJobs(jobs []func()) {
	for _, job := range jobs {
		go job()
	}
}

func badWallClock() time.Time {
	return time.Now() // want "time.Now reads the host clock"
}
