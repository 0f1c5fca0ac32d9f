// Package node bundles one simulated cluster node's storage stack: the
// device (always behind a fault injector, optionally behind a straggler
// hedger), its disk-extent manager, buffer pool, scan-share registry, and
// CPU resource.
//
// The engine's ownership structure is "a System owns N nodes": every layer
// that used to reach for *the* device or *the* pool now addresses a node.
// Assembly of the storage stack happens here and only here — the
// node-assembly row of the root boundaries_test.go rejects direct
// workload.NewDevice / buffer.NewPool / buffer.NewShares / disk.NewManager /
// fault.Wrap calls in the public package — so the
// single-node engine is exactly the one-node special case of the cluster.
//
// All nodes of a System share one sim.Env: the cluster runs on one virtual
// clock, and cross-node concurrency (scatter-gather fan-out) is ordinary
// process concurrency in that clock. A one-node System constructs its node
// with the same call sequence the pre-cluster engine used, so Shards=1
// zero-fault runs are byte-identical to the single-device builds.
package node

import (
	"fmt"

	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/exec"
	"pioqo/internal/fault"
	"pioqo/internal/obs"
	"pioqo/internal/sim"
	"pioqo/internal/workload"
)

// Config sizes one node.
type Config struct {
	// Kind is the storage model to attach. Every node of a cluster runs
	// the same device kind, so one calibration pass (on node 0) prices
	// I/O for all of them.
	Kind workload.DeviceKind

	// PoolPages is this node's buffer pool size in 4 KiB frames.
	PoolPages int

	// Cores is the node's logical core count.
	Cores int

	// Shares enables the node's circulating-scan registry.
	Shares bool

	// HedgeDelay, when positive, wraps the node's device in a straggler
	// hedger with that re-issue threshold. The hedger is built disarmed —
	// a pure passthrough — and armed by the gather executor for the
	// duration of a scatter-gather query (see fault.Hedger).
	HedgeDelay sim.Duration
}

// Node is one simulated cluster node. Fields are exported for the engine
// layers that address node-local resources; construction goes through New.
type Node struct {
	ID int

	// Dev is the device queries read: the hedger when hedging is
	// configured, the bare injector otherwise.
	Dev device.Device

	// Inj is the fault injector wrapping the raw device — the node's
	// fault-injection domain. Unarmed it is pure passthrough.
	Inj *fault.Injector

	// Hedge is the straggler hedger between Dev and Inj, nil when the
	// node was built without one.
	Hedge *fault.Hedger

	Manager *disk.Manager
	Pool    *buffer.Pool

	// Shares is the node's circulating-scan registry, nil when disabled.
	Shares *buffer.Shares

	// CPU is the node's core pool; each node executes its shard's workers
	// on its own cores.
	CPU *sim.Resource

	// Scratch is the free list the node's scan workers take their budgets
	// and scratch buffers from.
	Scratch *exec.Scratch
}

// New assembles a node on env whose layers record into rec. For id 0 the
// construction sequence — device, injector, manager, pool, CPU resource,
// then (optionally) the share registry — replicates the pre-cluster
// engine's assembly order exactly, which is what keeps one-node systems
// byte-identical to it. Node 0 is the coordinator: only its device and
// pool publish their instruments, so device.* and buffer.* are its.
func New(env *sim.Env, rec *obs.Registry, id int, cfg Config) *Node {
	inj := fault.Wrap(env, rec, workload.NewDevice(env, cfg.Kind))
	n := &Node{ID: id, Dev: inj, Inj: inj, Scratch: &exec.Scratch{}}
	if cfg.HedgeDelay > 0 {
		n.Hedge = fault.NewHedger(env, rec, inj, cfg.HedgeDelay)
		n.Dev = n.Hedge
	}
	// The manager sits above the hedger so every page read a scan issues is
	// hedgeable; a disarmed hedger forwards completions untouched.
	n.Manager = disk.NewManager(n.Dev)
	n.Pool = buffer.NewPool(env, cfg.PoolPages)
	if id == 0 {
		n.Dev.Metrics().Publish(rec)
		n.Pool.Publish(rec)
	} else {
		n.Pool.Observe(rec)
	}
	n.CPU = sim.NewResource(env, cpuName(id), cfg.Cores)
	if cfg.Shares {
		n.Shares = buffer.NewShares(env, n.Pool, buffer.ShareConfig{})
	}
	return n
}

// cpuName keeps node 0's resource name identical to the pre-cluster
// engine's ("cpu"); other nodes get a suffixed name for trace readability.
func cpuName(id int) string {
	if id == 0 {
		return "cpu"
	}
	return fmt.Sprintf("cpu@%d", id)
}

// DevicePages reports the node's device capacity in pages — the band the
// broker's credit supply and per-shard plans are priced over.
func (n *Node) DevicePages() int64 { return n.Dev.Size() / disk.PageSize }
