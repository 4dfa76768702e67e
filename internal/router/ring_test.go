package router

import (
	"fmt"
	"testing"
)

func ringOf(t *testing.T, names ...string) (*Ring, []*Node) {
	t.Helper()
	nodes := make([]*Node, len(names))
	for i, name := range names {
		nodes[i] = &Node{Name: name, URL: "http://" + name}
	}
	r, err := NewRing(nodes, 64, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	return r, r.Nodes()
}

// TestRingDeterministicPlacement: the same key always lands on the same
// node — the property the cluster's cache warmth depends on.
func TestRingDeterministicPlacement(t *testing.T) {
	r, _ := ringOf(t, "a", "b", "c")
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("%064x", i)
		n1, err := r.Pick(key)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 5; probe++ {
			n2, err := r.Pick(key)
			if err != nil {
				t.Fatal(err)
			}
			if n2 != n1 {
				t.Fatalf("key %s moved from %s to %s with stable membership", key, n1.Name, n2.Name)
			}
		}
	}
}

// TestRingSpreadsKeys: virtual nodes give every worker a share of the
// keyspace (no worker starves, none owns everything).
func TestRingSpreadsKeys(t *testing.T) {
	r, _ := ringOf(t, "a", "b", "c")
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		n, err := r.Pick(fmt.Sprintf("%064x", i*7919))
		if err != nil {
			t.Fatal(err)
		}
		counts[n.Name]++
	}
	for name, c := range counts {
		if c < keys/10 || c > keys*6/10 {
			t.Errorf("node %s owns %d/%d keys — distribution badly skewed: %v", name, c, keys, counts)
		}
	}
	if len(counts) != 3 {
		t.Errorf("only %d of 3 nodes own keys: %v", len(counts), counts)
	}
}

// TestRingEjectionMovesOnlyOrphanedKeys: ejecting one node reassigns its
// keys to successors and leaves every other key in place; re-admission
// restores the original ownership exactly (so a recovered worker's warm
// disk store is immediately useful again).
func TestRingEjectionMovesOnlyOrphanedKeys(t *testing.T) {
	r, nodes := ringOf(t, "a", "b", "c")
	const keys = 500
	before := make([]string, keys)
	for i := range before {
		n, err := r.Pick(fmt.Sprintf("%064x", i))
		if err != nil {
			t.Fatal(err)
		}
		before[i] = n.Name
	}

	nodes[1].setHealthy(false) // eject "b"
	moved := 0
	for i := range before {
		n, err := r.Pick(fmt.Sprintf("%064x", i))
		if err != nil {
			t.Fatal(err)
		}
		if n.Name == "b" {
			t.Fatalf("key %d routed to ejected node", i)
		}
		if before[i] == "b" {
			moved++
		} else if n.Name != before[i] {
			t.Errorf("key %d owned by healthy %s moved to %s on b's ejection", i, before[i], n.Name)
		}
	}
	if moved == 0 {
		t.Fatal("ejected node owned no keys; test proves nothing")
	}

	nodes[1].setHealthy(true) // re-admit
	for i := range before {
		n, err := r.Pick(fmt.Sprintf("%064x", i))
		if err != nil {
			t.Fatal(err)
		}
		if n.Name != before[i] {
			t.Errorf("key %d: ownership %s before ejection, %s after re-admission", i, before[i], n.Name)
		}
	}
}

// TestRingExcludeFindsSuccessor: the retry path — excluding the owner
// yields a different healthy node, and excluding everyone is
// ErrNoHealthyNodes.
func TestRingExcludeFindsSuccessor(t *testing.T) {
	r, _ := ringOf(t, "a", "b")
	key := fmt.Sprintf("%064x", 42)
	owner, err := r.Pick(key)
	if err != nil {
		t.Fatal(err)
	}
	succ, err := r.Pick(key, owner.Name)
	if err != nil {
		t.Fatal(err)
	}
	if succ == owner {
		t.Fatalf("successor pick returned the excluded owner %s", owner.Name)
	}
	if _, err := r.Pick(key, "a", "b"); err != ErrNoHealthyNodes {
		t.Fatalf("all-excluded pick: err = %v, want ErrNoHealthyNodes", err)
	}
}

// TestRingAllUnhealthy: an empty effective ring reports, not panics.
func TestRingAllUnhealthy(t *testing.T) {
	r, nodes := ringOf(t, "a", "b")
	for _, n := range nodes {
		n.setHealthy(false)
	}
	if _, err := r.Pick("deadbeef"); err != ErrNoHealthyNodes {
		t.Fatalf("err = %v, want ErrNoHealthyNodes", err)
	}
	if got := r.HealthyCount(); got != 0 {
		t.Fatalf("HealthyCount = %d, want 0", got)
	}
}

// TestRingBoundedLoadSkipsHotNode: a node far over the load ceiling is
// skipped in favor of an idle successor, and picked again once it
// drains — the bounded-load rule balancing, not rejecting.
func TestRingBoundedLoadSkipsHotNode(t *testing.T) {
	r, _ := ringOf(t, "a", "b", "c")
	key := fmt.Sprintf("%064x", 7)
	owner, err := r.Pick(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		owner.acquire()
	}
	spilled, err := r.Pick(key)
	if err != nil {
		t.Fatal(err)
	}
	if spilled == owner {
		t.Fatalf("pick stuck to %s at inflight %d with idle peers", owner.Name, owner.Inflight())
	}
	for i := 0; i < 100; i++ {
		owner.release()
	}
	back, err := r.Pick(key)
	if err != nil {
		t.Fatal(err)
	}
	if back != owner {
		t.Fatalf("drained owner %s not restored; got %s", owner.Name, back.Name)
	}
}

// TestRingValidation: bad configurations fail at build time.
func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 64, 1.25); err == nil {
		t.Error("empty ring accepted")
	}
	n := func(name string) *Node { return &Node{Name: name, URL: "http://" + name} }
	if _, err := NewRing([]*Node{n("a"), n("a")}, 64, 1.25); err == nil {
		t.Error("duplicate node names accepted")
	}
	if _, err := NewRing([]*Node{n("a")}, 0, 1.25); err == nil {
		t.Error("zero vnodes accepted")
	}
	if _, err := NewRing([]*Node{n("a")}, 64, 1.0); err == nil {
		t.Error("load factor 1.0 accepted")
	}
}

// TestRingLightLoadStaysOnOwner: below loadFloor a node keeps its keys
// even when the mean-based ceiling alone would spill them — with loads
// {2, 0} the ceiling is ceil(1.25 × 3/2) = 2, which the loaded owner's
// next request would exceed.
func TestRingLightLoadStaysOnOwner(t *testing.T) {
	r, _ := ringOf(t, "a", "b")
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("%064x", i)
		owner, err := r.Pick(key)
		if err != nil {
			t.Fatal(err)
		}
		owner.acquire()
		owner.acquire()
		got, err := r.Pick(key)
		owner.release()
		owner.release()
		if err != nil {
			t.Fatal(err)
		}
		if got != owner {
			t.Fatalf("key %d spilled from %s (inflight 2, peer idle) to %s", i, owner.Name, got.Name)
		}
	}
}
