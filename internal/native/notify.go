package native

import (
	"sync"
	"sync/atomic"

	"wfadvice/internal/obs"
)

// notifier is the event-mode wakeup primitive shared by one Runtime: a
// monotone change epoch plus a broadcast channel, in the futex idiom. Every
// state change a parked poller could be waiting on — an advice publication,
// a register write, runtime teardown — bumps the epoch; pollers park on
// "epoch advanced past what I saw before my last sweep".
//
// The fast path is asymmetric on purpose. Writers always pay one atomic add
// (the epoch) and one atomic load (the waiter count); only when a waiter is
// actually parked do they take the mutex and rotate the broadcast channel.
// Waiters pay the mutex only when about to block, which is exactly when they
// have nothing better to do.
//
// Why wakeups cannot be lost: a waiter increments waiters, reads the current
// channel under the mutex, and then re-checks the epoch before blocking. A
// concurrent writer bumps the epoch before loading waiters. Both sides use
// sequentially consistent atomics, so in the interleaving where the writer
// loads waiters before the waiter's increment (and therefore skips the
// channel rotation), the writer's epoch bump is ordered before the waiter's
// re-check — the re-check sees the new epoch and the waiter returns without
// blocking. In the other interleaving the writer sees waiters ≥ 1 and closes
// the channel the waiter reads under the same mutex, so the waiter either
// blocks on a channel the writer closes or re-checks after the bump. Either
// way the waiter observes the change.
type notifier struct {
	epoch   atomic.Uint64
	waiters atomic.Int32
	mu      sync.Mutex
	ch      chan struct{}
	m       obs.Handle
}

func newNotifier() *notifier { return &notifier{ch: make(chan struct{})} }

// current returns the epoch to sample before a predicate sweep.
func (n *notifier) current() uint64 { return n.epoch.Load() }

// bump records a state change and wakes every parked waiter.
func (n *notifier) bump() {
	n.m.Inc(cNotifyBump)
	n.epoch.Add(1)
	n.release()
}

// release wakes every parked waiter by rotating the broadcast channel; with
// nobody parked it is one atomic load. Called without a bump it is the
// heartbeat: waiters hold no timer, so the advice service's background loop —
// the one goroutine of a runtime that owns time — releases them once per
// awaitBackstop to recheck what the epoch does not carry (a crash deadline, a
// clerk's operation timeout). The epoch stays put then, which is how a
// released waiter tells a heartbeat from a change.
func (n *notifier) release() {
	if n.waiters.Load() == 0 {
		return
	}
	n.mu.Lock()
	close(n.ch)
	n.ch = make(chan struct{})
	n.mu.Unlock()
}

// await parks the caller until the epoch differs from seen or a heartbeat
// passes. It blocks on the broadcast channel alone: a lost wakeup would leave
// the heartbeat as the only way out, and notify_timeout counts those.
func (n *notifier) await(seen uint64) {
	if n.epoch.Load() != seen {
		return
	}
	n.waiters.Add(1)
	n.mu.Lock()
	ch := n.ch
	n.mu.Unlock()
	if n.epoch.Load() != seen {
		n.waiters.Add(-1)
		return
	}
	n.m.Inc(cNotifyPark)
	<-ch
	n.waiters.Add(-1)
	if n.epoch.Load() != seen {
		n.m.Inc(cNotifyWake)
	} else {
		n.m.Inc(cNotifyTimeout)
	}
}
