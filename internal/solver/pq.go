package solver

import "sync"

// idHeap is a binary min-heap of numbered elements under int64 keys, with
// O(1) membership through a position slice indexed by number: pushing a
// number that is already queued is a no-op, matching the add function of
// the paper's SW and SLR solvers. The solvers give every number a unique
// key, so the pop sequence depends on the keys alone, not on the order of
// the pushes. Keys are int64, not int: the SLR⁺ priority bands live in bits
// 32 and up (see bandKey), so an int key would collapse every band to zero
// on 32-bit platforms. The zero value is an empty heap.
type idHeap struct {
	heap []heapEntry
	pos  []int32 // pos[id] is id's heap slot plus one; 0 means not queued
}

type heapEntry struct {
	key int64
	id  int32
}

func (q *idHeap) empty() bool { return len(q.heap) == 0 }

func (q *idHeap) len() int { return len(q.heap) }

// minKey returns the smallest key in the queue; the queue must be nonempty.
func (q *idHeap) minKey() int64 { return q.heap[0].key }

// push inserts id with the given key unless it is already queued.
func (q *idHeap) push(id int32, key int64) {
	if n := int(id) + 1; n > len(q.pos) {
		q.pos = append(q.pos, make([]int32, n-len(q.pos))...)
	} else if q.pos[id] != 0 {
		return
	}
	e := heapEntry{key: key, id: id}
	q.heap = append(q.heap, e)
	q.up(len(q.heap)-1, e)
}

// popMin removes and returns the number with the smallest key; the queue
// must be nonempty.
func (q *idHeap) popMin() int32 {
	id := q.heap[0].id
	q.pos[id] = 0
	last := len(q.heap) - 1
	e := q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0, e)
	}
	return id
}

// put stores e in heap slot i and records its position.
func (q *idHeap) put(i int, e heapEntry) {
	q.heap[i] = e
	q.pos[e.id] = int32(i + 1)
}

// up moves e from slot i towards the root until its parent's key is not
// larger.
func (q *idHeap) up(i int, e heapEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		if q.heap[parent].key <= e.key {
			break
		}
		q.put(i, q.heap[parent])
		i = parent
	}
	q.put(i, e)
}

// down places e at slot i, sifting it towards the leaves until no child has
// a smaller key.
func (q *idHeap) down(i int, e heapEntry) {
	n := len(q.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.heap[r].key < q.heap[c].key {
			c = r
		}
		if e.key <= q.heap[c].key {
			break
		}
		q.put(i, q.heap[c])
		i = c
	}
	q.put(i, e)
}

// bucketQueue is the dense priority queue of the index-compiled SW and PSW
// cores: elements are order indices in a fixed window [base, base+cap), and
// an element's priority IS its index, so the heap collapses to a bitset of
// queued indices plus a lower bound on the minimum. push is a mask test and
// popMin a find-first-set scan from the bound — no hashing, no comparisons,
// no per-element bookkeeping. Because indices are unique priorities, the pop
// sequence is exactly the binary heap's, which keeps the dense solvers
// bit-identical to the map core (same evaluations, same MaxQueue).
type bucketQueue struct {
	bits bitset
	base int // index of bit 0
	n    int // queued element count
	min  int // lower bound: no queued index is smaller (absolute, not offset)
}

// newBucketQueue covers the index window [lo, hi] inclusive.
func newBucketQueue(lo, hi int) *bucketQueue {
	return &bucketQueue{bits: newBitset(hi - lo + 1), base: lo, min: hi + 1}
}

func (q *bucketQueue) empty() bool { return q.n == 0 }

func (q *bucketQueue) len() int { return q.n }

// push inserts index i unless already queued.
func (q *bucketQueue) push(i int) {
	o := i - q.base
	if q.bits.has(o) {
		return
	}
	q.bits.set(o)
	q.n++
	if i < q.min {
		q.min = i
	}
}

// popMin removes and returns the smallest queued index; the queue must be
// nonempty.
func (q *bucketQueue) popMin() int {
	o := q.bits.nextSet(q.min - q.base)
	q.bits.clear(o)
	q.n--
	i := q.base + o
	q.min = i + 1
	return i
}

// indices returns the queued indices in ascending order without modifying
// the queue — the non-destructive snapshot checkpoints are captured from.
func (q *bucketQueue) indices() []int {
	out := make([]int, 0, q.n)
	for o := q.bits.nextSet(0); o >= 0; o = q.bits.nextSet(o + 1) {
		out = append(out, q.base+o)
	}
	return out
}

// shardQueue is the sharded present-set of the chaotic intra-stratum solver
// (CPW): one mutex-guarded bucketQueue per worker over a fixed index window
// [base, hi]. An index's home shard is (i-base) mod shards, and each shard
// stores the compressed coordinate (i-base) div shards, so S shards over a
// window of n indices cost the same total bits as one bucketQueue over the
// whole window.
//
// Per-shard pops are min-first for the same reason SW's are: ⊟ iteration
// is only guaranteed to terminate under orders that stabilize inner
// unknowns before their outer readers re-widen them (the paper's Example 1
// diverges under RR precisely because it lacks this), so each worker
// drains the lowest dirty index its shard holds and steals round-robin
// when the shard runs dry. At one worker the single shard makes CPW's pop
// sequence exactly SW's; at S workers the schedule is "the S smallest
// dirty indices, concurrently" plus scheduler jitter — chaotic enough to
// scale, ordered enough to converge, and always under the watchdog
// envelope because the termination theorem does not cover chaotic orders.
//
// Membership dedup does NOT live here (bucketQueue's bitset would provide
// it, but never fires): CPW's per-unknown claim states guarantee an index
// is pushed only by the goroutine that transitioned it to queued, so each
// index is queued at most once globally. Home-shard pushing turns that
// invariant into a measurable bound: every shard's high-water mark is at
// most ceil(window/shards). Stats.MaxQueue takes the MAXIMUM over shard
// marks — summing them would re-count the whole stratum (≈window at seed
// time, when every shard is simultaneously full) and make the figure
// incomparable with the sequential solvers'; maxShardHigh and its
// regression test pin this.
type shardQueue struct {
	base   int
	stride int // == len(shards): the compression factor of shard coordinates
	shards []queueShard
}

// queueShard is one lane of the sharded worklist.
type queueShard struct {
	mu   sync.Mutex
	q    *bucketQueue
	high int
}

// newShardQueue covers the index window [lo, hi] inclusive with one shard
// per worker.
func newShardQueue(lo, hi, shards int) *shardQueue {
	if shards < 1 {
		shards = 1
	}
	q := &shardQueue{base: lo, stride: shards, shards: make([]queueShard, shards)}
	per := (hi - lo + shards) / shards // ceil(window/shards)
	for s := range q.shards {
		q.shards[s].q = newBucketQueue(0, per-1)
	}
	return q
}

// push queues index i on its home shard. The caller must hold the queued
// claim on i (see cpwRun.markDirty): that is what keeps each index in at
// most one shard slot without relying on the bitset dedup.
func (q *shardQueue) push(i int) {
	o := i - q.base
	sh := &q.shards[o%q.stride]
	sh.mu.Lock()
	sh.q.push(o / q.stride)
	if n := sh.q.len(); n > sh.high {
		sh.high = n
	}
	sh.mu.Unlock()
}

// pop returns the smallest queued index of worker w's own shard, stealing
// round-robin from the other shards when it is empty; ok is false when
// every shard was empty at the moment it was inspected (not a stable
// emptiness claim — concurrent pushes may land behind the scan, which is
// why CPW terminates on its pending count, not on pop failures).
func (q *shardQueue) pop(w int) (i int, ok bool) {
	n := len(q.shards)
	for k := 0; k < n; k++ {
		s := (w + k) % n
		sh := &q.shards[s]
		sh.mu.Lock()
		if !sh.q.empty() {
			c := sh.q.popMin()
			sh.mu.Unlock()
			return q.base + c*q.stride + s, true
		}
		sh.mu.Unlock()
	}
	return 0, false
}

// maxShardHigh merges the per-shard high-water marks into the stratum's
// MaxQueue contribution: the maximum, never the sum (see the shardQueue
// doc). Callers invoke it after the worker pool has quiesced, so the
// unlocked reads are ordered by the pool's WaitGroup.
func (q *shardQueue) maxShardHigh() int {
	m := 0
	for s := range q.shards {
		if h := q.shards[s].high; h > m {
			m = h
		}
	}
	return m
}
