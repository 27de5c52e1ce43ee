package native

import (
	"sync"
	"sync/atomic"

	"wfadvice/internal/obs"
)

// notifier is the event-mode wakeup primitive shared by one Runtime: a
// monotone change epoch plus a broadcast, in the futex idiom. Every state
// change a parked poller could be waiting on — an advice publication, a
// register write, runtime teardown — bumps the epoch; pollers park on "epoch
// advanced past what I saw before my last sweep".
//
// The fast path is asymmetric on purpose. Writers always pay one atomic add
// (the epoch) and one atomic load (the waiter count); only when a waiter is
// actually parked do they take the mutex, advance the wake generation and
// broadcast the condition variable. Waiters pay the mutex only when about to
// block, which is exactly when they have nothing better to do. A wake mints
// nothing: the generation is a word under the mutex, and a parked goroutine
// sits on the condition variable's list.
//
// Why wakeups cannot be lost: a waiter increments waiters, takes the mutex,
// and re-checks the epoch before it reads the generation and waits. A
// concurrent writer bumps the epoch before loading waiters. Both sides use
// sequentially consistent atomics, so in the interleaving where the writer
// loads waiters before the waiter's increment (and therefore skips the
// broadcast), the writer's epoch bump is ordered before the waiter's
// re-check — the re-check sees the new epoch and the waiter returns without
// blocking. In the other interleaving the writer sees waiters ≥ 1 and
// advances the generation under the same mutex: either before the waiter
// holds it, and then the waiter's re-check comes after the bump, or after
// the waiter gave it up inside Cond.Wait, which enlists the waiter before it
// unlocks, so the broadcast that follows reaches it and the generation it
// re-reads has moved. Either way the waiter observes the change.
type notifier struct {
	epoch   atomic.Uint64
	waiters atomic.Int32
	mu      sync.Mutex
	cond    sync.Cond // on mu; broadcast whenever gen moves
	gen     uint64    // wake generation, guarded by mu
	m       obs.Handle
}

func newNotifier() *notifier {
	n := &notifier{}
	n.cond.L = &n.mu
	return n
}

// current returns the epoch to sample before a predicate sweep.
func (n *notifier) current() uint64 { return n.epoch.Load() }

// bump records a state change and wakes every parked waiter.
func (n *notifier) bump() {
	n.m.Inc(cNotifyBump)
	n.epoch.Add(1)
	n.release()
}

// release wakes every parked waiter by advancing the wake generation; with
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
	n.gen++
	n.mu.Unlock()
	n.cond.Broadcast()
}

// await parks the caller until the epoch differs from seen or a heartbeat
// passes. It waits for the wake generation alone: a lost wakeup would leave
// the heartbeat as the only way out, and notify_timeout counts those.
func (n *notifier) await(seen uint64) {
	if n.epoch.Load() != seen {
		return
	}
	n.waiters.Add(1)
	n.mu.Lock()
	if n.epoch.Load() != seen {
		n.mu.Unlock()
		n.waiters.Add(-1)
		return
	}
	n.m.Inc(cNotifyPark)
	for gen := n.gen; gen == n.gen; {
		n.cond.Wait()
	}
	n.mu.Unlock()
	n.waiters.Add(-1)
	if n.epoch.Load() != seen {
		n.m.Inc(cNotifyWake)
	} else {
		n.m.Inc(cNotifyTimeout)
	}
}
