package node

import (
	"testing"

	"pioqo/internal/sim"
	"pioqo/internal/workload"
)

// TestNodeAssembly: the node owns a complete storage stack, with the
// hedger (when configured) in the manager's read path so scans are
// hedgeable, and the injector always at the bottom as the fault domain.
func TestNodeAssembly(t *testing.T) {
	env := sim.NewEnv(1)
	plain := New(env, nil, 0, Config{Kind: workload.SSD, PoolPages: 256, Cores: 8})
	if plain.Hedge != nil {
		t.Error("node without HedgeDelay grew a hedger")
	}
	if plain.Dev != plain.Inj {
		t.Error("unhedged node's Dev is not the injector")
	}
	if plain.Manager.Device() != plain.Dev {
		t.Error("manager reads bypass the node's Dev")
	}
	if plain.Shares != nil {
		t.Error("Shares built without being requested")
	}
	if cpuName(0) != "cpu" {
		t.Errorf("node 0 CPU resource named %q, want \"cpu\" (pre-cluster byte-identity)", cpuName(0))
	}
	if plain.Pool.Capacity() != 256 {
		t.Errorf("pool capacity %d, want 256", plain.Pool.Capacity())
	}
	if plain.DevicePages() <= 0 {
		t.Error("DevicePages not positive")
	}

	hedged := New(env, nil, 3, Config{Kind: workload.SSD, PoolPages: 256, Cores: 8,
		Shares: true, HedgeDelay: sim.Duration(sim.Millisecond)})
	if hedged.Hedge == nil || hedged.Dev != hedged.Hedge {
		t.Fatal("HedgeDelay did not put the hedger on Dev")
	}
	if hedged.Manager.Device() != hedged.Hedge {
		t.Error("manager reads bypass the hedger: scans would be unhedgeable")
	}
	if hedged.Hedge.Armed() {
		t.Error("hedger built armed; must start as passthrough")
	}
	if hedged.Shares == nil {
		t.Error("Shares requested but not built")
	}
	if cpuName(3) != "cpu@3" {
		t.Errorf("node 3 CPU resource named %q, want \"cpu@3\"", cpuName(3))
	}
}

// TestNodeConstructionIsInert: assembling extra nodes must neither advance
// the clock nor schedule events — that is what keeps a one-node system
// byte-identical to the pre-cluster engine and lets a cluster share one
// env safely.
func TestNodeConstructionIsInert(t *testing.T) {
	env := sim.NewEnv(1)
	for i := 0; i < 4; i++ {
		New(env, nil, i, Config{Kind: workload.SSD, PoolPages: 128, Cores: 4,
			HedgeDelay: sim.Duration(sim.Millisecond)})
	}
	if env.Now() != 0 {
		t.Errorf("node construction advanced the clock to %d", env.Now())
	}
	if end := env.Run(); end != 0 {
		t.Errorf("node construction left scheduled events; Run advanced to %d", end)
	}
}
