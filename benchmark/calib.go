package main

import (
	"os"
	"time"
)

// The reference box is a small VM on a shared host, and the host's speed
// drifts by 10-40 % over minutes while every counter of the work stays
// the same (README.md, A/A section). A drift that outlasts a run cannot
// be averaged away inside it, so the harness measures the host too: a
// fixed kernel of its own — filling fresh memory, integer arithmetic, and
// dependent loads from tables that sit in L2, in L3 and in memory — is
// timed between passes, and every end-to-end time of the run is scaled
// by calibRefS over the run's median kernel time. The result reads in
// seconds at the reference clock; the report keeps the times as measured
// and the kernel's samples.
//
// The kernel shares no code with the repository, so no change to the
// program under test can move it.

// calibRefS is the reference clock: about what the kernel takes on the
// reference box in its quietest phase (0.57-0.61 s when the A/A table of
// README.md was recorded).
const calibRefS = 0.52

// calibEvery is the least time between two kernel samples, so that the
// short passes of quick_batch are not outweighed by calibration.
const calibEvery = 2500 * time.Millisecond

const (
	calibArithSteps = 50_000_000
	calibSmallSteps = 25_000_000
	calibMidSteps   = 3_000_000
	calibBigSteps   = 1_000_000
)

// Calibration is the host-speed record of one run.
type Calibration struct {
	RefS    float64   `json:"ref_s"`
	Samples []float64 `json:"samples_s"`
	// Factor is RefS over the median sample, and what the run's times are
	// multiplied by: below 1 on a host slower than the reference clock.
	Factor float64 `json:"factor"`
}

// calibrator collects the kernel samples of one run. Each sample is
// taken in a child process of its own: a child's max RSS as rusage
// reports it starts from its parent's at the fork, so the parent of the
// measured passes must not hold the kernel's tables.
type calibrator struct {
	exe     string
	samples []float64
	last    time.Time
}

func newCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	return &calibrator{exe: exe}, err
}

// sample spawns one `-calib` child and records the time it reports.
func (c *calibrator) sample() error {
	var s float64
	if _, err := spawn(c.exe, &s, "-calib"); err != nil {
		return err
	}
	c.samples = append(c.samples, s)
	c.last = time.Now()
	return nil
}

// sampleIfDue samples unless the last sample is still fresh.
func (c *calibrator) sampleIfDue() error {
	if time.Since(c.last) < calibEvery {
		return nil
	}
	return c.sample()
}

func (c *calibrator) result() Calibration {
	return Calibration{RefS: calibRefS, Samples: c.samples, Factor: calibRefS / median(c.samples)}
}

// chaseTable returns a table in which following next[i] from any start
// visits all n = 2^bits entries before it repeats: i -> a*i + c mod 2^bits
// has full period for c odd and a = 1 mod 4 (Hull-Dobell), and its
// successive values are scattered enough to defeat the prefetchers.
func chaseTable(bits uint) []uint32 {
	n := uint32(1) << bits
	next := make([]uint32, n)
	for i := uint32(0); i < n; i++ {
		next[i] = (i*1664525 + 1013904223) & (n - 1)
	}
	return next
}

func chase(next []uint32, steps int) uint32 {
	i := uint32(0)
	for s := 0; s < steps; s++ {
		i = next[i]
	}
	return i
}

// calibKernel is what a `-calib` child runs, and returns the seconds it
// took: filling the tables (256 KiB, 8 MiB, 128 MiB of fresh memory),
// the arithmetic, then the three walks.
func calibKernel() float64 {
	start := time.Now()
	small, mid, big := chaseTable(16), chaseTable(21), chaseTable(25)
	x := uint64(1)
	for s := 0; s < calibArithSteps; s++ {
		x = x*6364136223846793005 + 1442695040888963407
		if x&7 == 0 {
			x ^= x >> 13
		}
	}
	x += uint64(chase(small, calibSmallSteps) + chase(mid, calibMidSteps) + chase(big, calibBigSteps))
	took := time.Since(start).Seconds()
	if x == 0 { // keeps the result, and with it the loops, alive
		took = 0
	}
	return took
}
