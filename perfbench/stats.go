package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of values by linear
// interpolation between closest ranks; 0 for no values.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSampler tracks two peaks while it runs: the Go runtime's resident
// estimate (memory mapped by the runtime minus what it returned to the
// OS) and the live heap (bytes still reachable at the last GC). The live
// heap does not depend on when collections happen to run, so it is the
// steadier of the two. Sampling starts after a full GC that returns
// freed memory, so the set-up's garbage does not count.
type memSampler struct {
	stop     chan struct{}
	done     sync.WaitGroup
	resident uint64
	live     uint64
	liveSum  float64
	samples  int
}

var memSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
	{Name: "/gc/heap/live:bytes"},
}

func (m *memSampler) sample() {
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	m.resident = max(m.resident, s[0].Value.Uint64()-s[1].Value.Uint64())
	m.live = max(m.live, s[2].Value.Uint64())
	m.liveSum += float64(s[2].Value.Uint64())
	m.samples++
}

// retainedHeapMiB collects garbage and returns the live heap that is
// left: what the process holds between operations. It collects twice,
// because objects idle in a sync.Pool survive one collection.
func retainedHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func startMemSampler() *memSampler {
	runtime.GC()
	debug.FreeOSMemory()
	m := &memSampler{stop: make(chan struct{})}
	m.sample()
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

// memUse is what a memSampler saw, in MiB.
type memUse struct {
	peakResident, peakLive, meanLive float64
}

// finish stops the sampler and returns what it saw.
func (m *memSampler) finish() memUse {
	close(m.stop)
	m.done.Wait()
	m.sample()
	return memUse{
		peakResident: float64(m.resident) / (1 << 20),
		peakLive:     float64(m.live) / (1 << 20),
		meanLive:     m.liveSum / float64(m.samples) / (1 << 20),
	}
}
