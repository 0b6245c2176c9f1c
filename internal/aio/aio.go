// Package aio is the engine's asynchronous shard-read layer: a
// goroutine-pool implementation of the io_uring-style submission queue
// the staging window models. A Reader keeps up to depth reads in
// flight at once across per-NUMA-domain queues — submissions for a
// domain are executed by that domain's workers, so under a real NUMA
// runtime the bytes land on the socket that will apply them — and each
// submission resolves a Ticket the consumer reaps in its own order.
// The read closures own decode as well as I/O (the engine submits
// read+decode as one unit), so decode overlaps both the
// other in-flight reads and the concurrent applies.
//
// The Reader makes no ordering promises across tickets: completions
// may reorder freely (slow reads finish late, short queues finish
// early). Consumers that need an order — the staging goroutine needs
// plan order, so the LRU sees the exact get/put sequence a synchronous
// sweep would issue — reap tickets in that order themselves.
package aio

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrClosed resolves every ticket whose read had not started when the
// Reader was closed.
var ErrClosed = errors.New("aio: reader closed")

// Ticket is one submitted read's completion handle.
type Ticket[T any] struct {
	done chan struct{}
	val  T
	err  error
}

func (t *Ticket[T]) resolve(v T, err error) {
	t.val, t.err = v, err
	close(t.done)
}

// Ready reports whether the read has completed (successfully or not)
// without blocking.
func (t *Ticket[T]) Ready() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Done returns a channel closed when the read completes.
func (t *Ticket[T]) Done() <-chan struct{} { return t.done }

// Wait blocks until the read completes and returns its result.
func (t *Ticket[T]) Wait() (T, error) {
	<-t.done
	return t.val, t.err
}

type request[T any] struct {
	read   func() (T, error)
	ticket *Ticket[T]
}

// Reader issues submitted reads from per-domain queues with at most
// depth reads executing at any moment, reader-wide. Submit never
// blocks: a submission that would overflow its domain's queue
// capacity resolves with an error instead (the engine sizes queues to
// the plan's per-domain counts, so overflow never happens in a
// well-formed sweep). Close is idempotent and waits for the workers
// to exit; reads still queued at Close resolve ErrClosed without
// executing.
type Reader[T any] struct {
	sem    chan struct{} // reader-wide in-flight budget, capacity = depth
	quit   chan struct{}
	notify func() // called after every completion (may be nil)
	queues []chan request[T]

	mu     sync.Mutex // guards closed and the queue sends racing Close
	closed bool
	wg     sync.WaitGroup

	inFlight int64
	peak     int64
}

// Budget is a sharable in-flight read budget: a semaphore of depth
// slots that one or many Readers draw from. A private Reader gets its
// own (New); a daemon hosting concurrent sweeps over one device hands
// the same Budget to every Reader it starts (NewShared), so the total
// reads in flight across all of them never exceed the device budget —
// N queries share the read-ahead, they do not multiply it.
type Budget struct {
	sem chan struct{}
}

// NewBudget builds an in-flight read budget of depth slots, floored
// at 1.
func NewBudget(depth int) *Budget {
	if depth < 1 {
		depth = 1
	}
	return &Budget{sem: make(chan struct{}, depth)}
}

// Cap returns the budget's slot count.
func (b *Budget) Cap() int { return cap(b.sem) }

// New builds a Reader with one queue per domain: caps[d] is domain d's
// queue capacity (a domain with no planned reads may pass 0 and gets
// no queue or workers). depth is the reader-wide in-flight budget,
// floored at 1. Each domain runs min(depth, caps[d]) workers — more
// could never execute simultaneously. notify, if non-nil, is invoked
// after every ticket resolves; consumers blocked waiting for "some
// ticket became ready" use it as their wake-up. A notify that signals
// a condition variable must take the mutex guarding the consumer's
// check-then-wait before broadcasting — an unserialized broadcast can
// land between the check and the wait and be lost.
func New[T any](caps []int, depth int, notify func()) *Reader[T] {
	return NewShared[T](caps, NewBudget(depth), notify)
}

// NewShared builds a Reader like New but drawing its in-flight slots
// from a caller-owned Budget, which may be shared with other Readers.
// Close releases only this Reader's workers; slots held by a read
// still executing return to the Budget when it finishes, so a shared
// Budget survives any of its Readers.
func NewShared[T any](caps []int, b *Budget, notify func()) *Reader[T] {
	depth := b.Cap()
	r := &Reader[T]{
		sem:    b.sem,
		quit:   make(chan struct{}),
		notify: notify,
		queues: make([]chan request[T], len(caps)),
	}
	for d, c := range caps {
		if c <= 0 {
			continue
		}
		r.queues[d] = make(chan request[T], c)
		workers := depth
		if c < workers {
			workers = c
		}
		r.wg.Add(workers)
		for i := 0; i < workers; i++ {
			go r.serve(r.queues[d])
		}
	}
	return r
}

// serve is one domain worker: it claims a slot of the reader-wide
// budget, executes the read, resolves the ticket. After Close it
// drains its queue resolving everything ErrClosed so no reaper can
// block on an abandoned ticket.
func (r *Reader[T]) serve(q chan request[T]) {
	defer r.wg.Done()
	for req := range q {
		select {
		case <-r.quit:
			var zero T
			req.ticket.resolve(zero, ErrClosed)
		default:
			select {
			case <-r.quit:
				var zero T
				req.ticket.resolve(zero, ErrClosed)
			case r.sem <- struct{}{}:
				// The select above picks randomly when quit and a sem
				// slot are both ready, so re-check quit with priority:
				// a read still queued at Close must resolve ErrClosed
				// without executing, per the Close contract.
				select {
				case <-r.quit:
					<-r.sem
					var zero T
					req.ticket.resolve(zero, ErrClosed)
				default:
					n := atomic.AddInt64(&r.inFlight, 1)
					for {
						p := atomic.LoadInt64(&r.peak)
						if n <= p || atomic.CompareAndSwapInt64(&r.peak, p, n) {
							break
						}
					}
					v, err := req.read()
					atomic.AddInt64(&r.inFlight, -1)
					<-r.sem
					req.ticket.resolve(v, err)
				}
			}
		}
		if r.notify != nil {
			r.notify()
		}
	}
}

// Submit enqueues read on domain's queue and returns its ticket. A
// submission to a closed Reader, to a domain that was given no queue
// capacity, or to a domain whose queue is full resolves immediately
// with an error instead of executing.
func (r *Reader[T]) Submit(domain int, read func() (T, error)) *Ticket[T] {
	t := &Ticket[T]{done: make(chan struct{})}
	var q chan request[T]
	if domain >= 0 && domain < len(r.queues) {
		q = r.queues[domain]
	}
	if q == nil {
		var zero T
		t.resolve(zero, fmt.Errorf("aio: domain %d has no read queue", domain))
		return t
	}
	// The send happens under mu so it cannot race a concurrent Close
	// closing the channel. It must stay non-blocking: a blocking send
	// while holding mu would deadlock a concurrent Close if a caller
	// ever outran the queue capacity, so overflow resolves the ticket
	// with an error instead of blocking.
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		var zero T
		t.resolve(zero, ErrClosed)
		return t
	}
	select {
	case q <- request[T]{read: read, ticket: t}:
		r.mu.Unlock()
	default:
		r.mu.Unlock()
		var zero T
		t.resolve(zero, fmt.Errorf("aio: domain %d read queue full (capacity %d)", domain, cap(q)))
	}
	return t
}

// InFlight returns the number of reads executing right now.
func (r *Reader[T]) InFlight() int { return int(atomic.LoadInt64(&r.inFlight)) }

// PeakInFlight returns the maximum simultaneous reads observed over
// the Reader's lifetime.
func (r *Reader[T]) PeakInFlight() int64 { return atomic.LoadInt64(&r.peak) }

// Close stops the Reader and waits for its workers to exit: reads
// already executing finish and resolve normally, queued reads resolve
// ErrClosed without executing. Idempotent.
func (r *Reader[T]) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.quit)
		for _, q := range r.queues {
			if q != nil {
				close(q)
			}
		}
	}
	r.mu.Unlock()
	r.wg.Wait()
}
