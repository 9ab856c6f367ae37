package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The hosts this benchmark runs on share their cores with other
// tenants: over minutes a fixed loop's speed drifts by 30% and more
// (measured on a 2-core cloud VM, where one workload's pass time
// doubled for minutes at a stretch), more than the regressions the
// benchmark must catch. So each pass, and each set-up sample, is
// bracketed by a yardstick: a fixed piece of work, long enough (about
// 32 ms) to span many of the host's scheduling slices, whose time
// tracks the host's current speed. Reported host times are scaled to
// the yardstick's reference time:
//
//	reported = measured × yardstickRef / (yardstick time around it)
//
// The yardstick is the benchmark's own code, never the program's: a
// change to the program moves the workload's time, not the yardstick's.

// yardstickRef is the yardstick's typical time on the reference host
// (2-core Intel Xeon VM, Go 1.24), so reported times read as seconds on
// that host at its typical speed.
const yardstickRef = 0.032

// yardstickWords sizes each goroutine's walk: 256 KiB of uint32s. The
// buffers are mapped outside the Go heap, so they leave the program's
// garbage-collector pacing alone.
const yardstickWords = 1 << 16

// yardstick is the fixed work, one buffer per goroutine.
type yardstick struct {
	mem [][]uint32
}

func newYardstick(procs int) (*yardstick, error) {
	y := &yardstick{mem: make([][]uint32, procs)}
	for g := range y.mem {
		b, err := syscall.Mmap(-1, 0, 4*yardstickWords,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("mapping yardstick memory: %w", err)
		}
		y.mem[g] = unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), yardstickWords)
		for i := range y.mem[g] {
			y.mem[g][i] = uint32(i) * 2654435761
		}
	}
	return y, nil
}

// walk runs a dependent walk over mem mixed with integer hashing: the
// two kinds of work a discrete-event simulator spends its time on. It
// writes mem, so the compiler cannot drop it.
func walk(mem []uint32, seed uint32) {
	x := seed | 1
	idx := uint32(0)
	mask := uint32(len(mem) - 1)
	for i := 0; i < 1<<22; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := mem[idx]
		mem[idx] = v + x
		idx = (v ^ x) & mask
	}
}

// scale is the factor that brings a time measured between yardsticks
// of y0 and y1 seconds to the reference speed.
func (y *yardstick) scale(y0, y1 float64) float64 {
	return yardstickRef / ((y0 + y1) / 2)
}

// measure runs the work on every goroutine at once (a pass keeps every
// core busy, so every core's speed counts) and returns the median
// seconds per goroutine.
func (y *yardstick) measure() float64 {
	var wg sync.WaitGroup
	secs := make([]float64, len(y.mem))
	for g := range y.mem {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t0 := time.Now()
			walk(y.mem[g], uint32(g)+1)
			secs[g] = time.Since(t0).Seconds()
		}(g)
	}
	wg.Wait()
	return median(secs)
}
