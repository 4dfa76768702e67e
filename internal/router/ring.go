// Package router is the stateless front of an ltsimd cluster: it
// expands scenarios once, consistent-hashes canonical fingerprints
// across N workers, coalesces duplicate in-flight keys cluster-wide,
// and survives worker death by ejecting the node from the ring and
// retrying on the successor until the health probe re-admits it.
//
// Routing by fingerprint is what makes the cluster's cache warmth add
// up instead of dilute: every repeat of a configuration lands on the
// same worker, so each worker's memory LRU and disk store hold a
// disjoint shard of the cluster's answered questions, and the
// cluster-wide hit rate — not per-node compute — sets throughput.
package router

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync/atomic"
)

// ErrNoHealthyNodes reports a pick with every worker ejected.
var ErrNoHealthyNodes = errors.New("router: no healthy workers in the ring")

// Node is one ltsimd worker in the ring.
type Node struct {
	// Name labels the node in sweep lines, stats, and metrics; URL is
	// its base address.
	Name string
	URL  string

	healthy  atomic.Bool
	inflight atomic.Int64
	// routed counts the requests the router has dispatched to this node,
	// retried attempts included.
	routed atomic.Uint64
}

// Healthy reports whether the node is currently admitted to the ring.
func (n *Node) Healthy() bool { return n.healthy.Load() }

// Inflight returns the requests the router currently has against this
// node — the load the bounded-load rule balances.
func (n *Node) Inflight() int64 { return n.inflight.Load() }

func (n *Node) setHealthy(ok bool) bool { return n.healthy.Swap(ok) != ok }
func (n *Node) acquire()                { n.inflight.Add(1) }
func (n *Node) release()                { n.inflight.Add(-1) }

// vnode is one virtual point on the hash circle.
type vnode struct {
	hash uint64
	node *Node
}

// Ring is a consistent-hash ring with virtual nodes and bounded loads
// (Mirrokni et al.: a node is skipped while its in-flight load exceeds
// loadFactor times the mean and is at least loadFloor, so one hot
// fingerprint region cannot saturate a single worker while others
// idle). Membership is fixed at build time; health is dynamic — ejected
// nodes stay on the circle but are skipped, so re-admission restores
// the exact same key ownership and the warm caches behind it.
type Ring struct {
	nodes      []*Node // sorted by name, for stable listings
	vnodes     []vnode // sorted by hash
	loadFactor float64
}

// NewRing builds a ring over the given nodes with vnodesPer virtual
// points each (more points = smoother key distribution). loadFactor
// must be > 1; 1.25 is the usual choice.
func NewRing(nodes []*Node, vnodesPer int, loadFactor float64) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, errors.New("router: ring needs at least one node")
	}
	if vnodesPer < 1 {
		return nil, errors.New("router: need at least one virtual node per worker")
	}
	if loadFactor <= 1 {
		return nil, fmt.Errorf("router: load factor %g must exceed 1", loadFactor)
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		nodes:      append([]*Node(nil), nodes...),
		vnodes:     make([]vnode, 0, len(nodes)*vnodesPer),
		loadFactor: loadFactor,
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i].Name < r.nodes[j].Name })
	for _, n := range r.nodes {
		if seen[n.Name] {
			return nil, fmt.Errorf("router: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		n.healthy.Store(true)
		for i := 0; i < vnodesPer; i++ {
			r.vnodes = append(r.vnodes, vnode{hash: hash64(fmt.Sprintf("%s#%d", n.Name, i)), node: n})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
	return r, nil
}

// hash64 is the ring's point hash: FNV-1a (dependency-free) through a
// splitmix64 finalizer — raw FNV avalanches poorly on the short "name#i"
// vnode labels, which shows up as badly skewed key ownership.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Nodes lists the ring members sorted by name.
func (r *Ring) Nodes() []*Node { return r.nodes }

// NodeByName finds a member.
func (r *Ring) NodeByName(name string) (*Node, bool) {
	for _, n := range r.nodes {
		if n.Name == name {
			return n, true
		}
	}
	return nil, false
}

// HealthyCount counts admitted nodes.
func (r *Ring) HealthyCount() int {
	c := 0
	for _, n := range r.nodes {
		if n.Healthy() {
			c++
		}
	}
	return c
}

// loadFloor is the in-flight count below which a node is always
// admissible, whatever the bounded-load ceiling says. It is also the
// per-node share of the router's /sweep pool, so one client's sweep
// never spills a point off the worker that owns it:
// with few requests in flight the mean-based ceiling is tiny (two
// requests on one node of two already exceed 1.25 × 3/2), and spilling
// there only scatters cache warmth.
const loadFloor = 8

// Pick returns the worker that owns key: the first healthy,
// non-excluded node clockwise from the key's point whose in-flight load
// is under loadFloor or fits the bounded-load rule. If every candidate
// is over the bound the first healthy one is used anyway (the bound
// balances, it does not reject). exclude names nodes already tried and
// failed this request — the successor-retry path after an ejection.
func (r *Ring) Pick(key string, exclude ...string) (*Node, error) {
	if len(r.vnodes) == 0 {
		return nil, ErrNoHealthyNodes
	}
	excluded := func(n *Node) bool {
		for _, name := range exclude {
			if n.Name == name {
				return true
			}
		}
		return false
	}

	// The bounded-load ceiling: a node is admissible while taking this
	// request keeps it at or under loadFactor times the mean load.
	var total int64
	healthy := 0
	for _, n := range r.nodes {
		if n.Healthy() && !excluded(n) {
			total += n.Inflight()
			healthy++
		}
	}
	if healthy == 0 {
		return nil, ErrNoHealthyNodes
	}
	ceiling := int64(math.Ceil(r.loadFactor * float64(total+1) / float64(healthy)))
	if ceiling < 1 {
		ceiling = 1
	}

	h := hash64(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	var first *Node
	seen := make(map[string]bool, healthy)
	for i := 0; i < len(r.vnodes) && len(seen) < healthy; i++ {
		n := r.vnodes[(start+i)%len(r.vnodes)].node
		if !n.Healthy() || excluded(n) || seen[n.Name] {
			continue
		}
		seen[n.Name] = true
		if first == nil {
			first = n
		}
		if load := n.Inflight(); load < loadFloor || load+1 <= ceiling {
			return n, nil
		}
	}
	return first, nil
}
