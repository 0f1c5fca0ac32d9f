package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// engineLayers are the engine packages whose share of host CPU is reported
// under their own name; the rest of pioqo/ lands in engine.other_share.
var engineLayers = []string{"sim", "device", "buffer", "table", "btree", "exec", "cost", "opt", "broker", "adapt", "fault"}

// schedFuncs and gcFuncs split the Go runtime's samples. The first is what
// sim.Proc hand-offs cost — channel operations, parking and readying
// goroutines, the scheduler and its locks; the second is allocation and
// garbage collection.
var (
	schedFuncs = []string{"chan", "park", "ready", "futex", "casgstatus", "lock", "schedule", "findRunnable",
		"mcall", "gosched", "wakep", "stealWork", "runq", "note", "usleep", "osyield", "procyield",
		"sema", "netpoll", "startm", "stopm", "execute", "gogo", "goexit", "newproc", "gfget", "gfput",
		"resetspinning", "checkTimers", "pidle", "mPark", "sellock", "selunlock", "selectgo", "sudog", "nanotime"}
	gcFuncs = []string{"malloc", "gc", "scan", "mark", "sweep", "heapBits", "memclr", "mspan", "mheap", "mcache",
		"mcentral", "nextFree", "greyobject", "findObject", "wb", "bulkBarrier", "typedmemmove", "growslice",
		"makeslice", "newobject", "makemap", "mapassign", "spanOf", "pageAlloc", "publicationBarrier", "deductAssistCredit"}
)

// hostShares splits a CPU profile's samples over the layers, from the text
// of `go tool pprof -traces`. A sample whose leaf is scheduler or allocator
// code in the Go runtime counts there; any other sample counts towards the
// innermost engine package on its stack, so math or sort called from opt is
// opt's time; what is left is the benchmark's own or other runtime code.
func hostShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{
		"engine.other_share": 0, "bench.host_share": 0,
		"runtime.sched_share": 0, "runtime.alloc_gc_share": 0, "runtime.other_share": 0,
	}
	for _, layer := range engineLayers {
		shares[layer+".host_share"] = 0
	}
	var total, weight float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			shares[bucket(stack)] += weight
			total += weight
		}
		stack = stack[:0]
	}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----"):
			flush()
		case len(f) == 0 || !strings.HasPrefix(line, " "):
			// header lines
		case len(stack) == 0:
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				continue
			}
			weight, stack = d.Seconds(), append(stack, f[1])
		default:
			stack = append(stack, f[0])
		}
	}
	flush()
	for name := range shares {
		shares[name] = ratio(shares[name], total) // a pass too short to be sampled has no shares
	}
	return shares, nil
}

// bucket names the share a sample counts towards; stack[0] is its leaf.
func bucket(stack []string) string {
	leaf := stack[0]
	if strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "internal/runtime/") {
		for _, s := range gcFuncs {
			if strings.Contains(leaf, s) {
				return "runtime.alloc_gc_share"
			}
		}
		for _, s := range schedFuncs {
			if strings.Contains(leaf, s) {
				return "runtime.sched_share"
			}
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "pioqo/internal/"):
			pkg := strings.TrimPrefix(fn, "pioqo/internal/")
			pkg = pkg[:strings.IndexAny(pkg+".", "./")]
			for _, layer := range engineLayers {
				if pkg == layer {
					return layer + ".host_share"
				}
			}
			return "engine.other_share"
		case strings.HasPrefix(fn, "pioqo."):
			return "engine.other_share"
		case strings.HasPrefix(fn, "main."):
			return "bench.host_share"
		}
	}
	return "runtime.other_share"
}
