package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"

	"ballarus/internal/interp"
)

// flight is one in-progress or completed computation in a flightCache.
type flight[V any] struct {
	ready chan struct{} // closed when val/err are set
	val   V
	err   error
	elem  *list.Element // LRU position once completed; nil while in flight
}

// flightCache is a content-addressed cache with single-flight semantics:
// concurrent lookups of the same key share one computation. Completed
// values are kept in an LRU bounded by max entries (0 = unbounded);
// in-flight computations are pinned and never evicted. Errors are never
// cached — the failed entry is removed so a later request retries.
type flightCache[V any] struct {
	mu        sync.Mutex
	max       int
	m         map[string]*flight[V]
	order     *list.List // completed keys, front = most recently used
	evictions int64
}

func newFlightCache[V any](max int) *flightCache[V] {
	return &flightCache[V]{max: max, m: map[string]*flight[V]{}, order: list.New()}
}

// isCanceled reports whether err came from cancellation rather than from
// the computation itself, so a waiter with a live context should retry
// instead of inheriting the leader's cancellation.
func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, interp.ErrInterrupted)
}

// do returns the cached value for key, computing it with fn if absent.
// hit reports whether the value came from the cache (including joining
// another request's in-flight computation). Waiting respects ctx; the
// computation itself is the leader's and keeps running even if a waiter
// gives up.
func (c *flightCache[V]) do(ctx context.Context, key string, fn func() (V, error)) (val V, hit bool, err error) {
	for {
		c.mu.Lock()
		if f, ok := c.m[key]; ok {
			if f.elem != nil {
				c.order.MoveToFront(f.elem)
			}
			c.mu.Unlock()
			select {
			case <-f.ready:
				if f.err == nil {
					return f.val, true, nil
				}
				if isCanceled(f.err) && ctx.Err() == nil {
					continue // the leader was cancelled, not the work; retry
				}
				return val, true, f.err
			case <-ctx.Done():
				return val, false, ctx.Err()
			}
		}
		f := &flight[V]{ready: make(chan struct{})}
		c.m[key] = f
		c.mu.Unlock()

		f.val, f.err = fn()
		c.mu.Lock()
		if f.err != nil {
			delete(c.m, key)
		} else if c.m[key] == f { // not evicted by a racing completion
			f.elem = c.order.PushFront(key)
			c.evict()
		}
		c.mu.Unlock()
		close(f.ready)
		return f.val, false, f.err
	}
}

// evict trims completed entries beyond max, oldest first. Caller holds
// c.mu. In-flight entries are not in order and so are never evicted.
func (c *flightCache[V]) evict() {
	if c.max <= 0 {
		return
	}
	for c.order.Len() > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.m, back.Value.(string))
		c.evictions++
	}
}

// completed returns the completed entries' keys and values, least
// recently used first.
func (c *flightCache[V]) completed() ([]string, []V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.order.Len())
	vals := make([]V, 0, c.order.Len())
	for e := c.order.Back(); e != nil; e = e.Prev() {
		key := e.Value.(string)
		keys = append(keys, key)
		vals = append(vals, c.m[key].val)
	}
	return keys, vals
}

// stats returns the entry count and cumulative evictions.
func (c *flightCache[V]) stats() cacheSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheSnapshot{entries: len(c.m), evictions: c.evictions, capacity: c.max}
}

// hasher builds content-hash cache keys.
type hasher struct {
	h [sha256.Size]byte
	b []byte
}

func newHasher() *hasher { return &hasher{} }

func (h *hasher) str(s string) *hasher {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.b = append(h.b, n[:]...)
	h.b = append(h.b, s...)
	return h
}

func (h *hasher) i64(v int64) *hasher {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(v))
	h.b = append(h.b, n[:]...)
	return h
}

func (h *hasher) i64s(vs []int64) *hasher {
	h.i64(int64(len(vs)))
	for _, v := range vs {
		h.i64(v)
	}
	return h
}

func (h *hasher) bool(v bool) *hasher {
	if v {
		h.b = append(h.b, 1)
	} else {
		h.b = append(h.b, 0)
	}
	return h
}

func (h *hasher) sum() string {
	h.h = sha256.Sum256(h.b)
	return hex.EncodeToString(h.h[:])
}
