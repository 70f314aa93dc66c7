package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drbac"
)

// Injected violations exist so the self-tests can show that every
// correctness check fires. A benchmark run never sets one.
type injMode int

const (
	injNone injMode = iota
	injStaleProof
	injWrongAnswer
	injDropPush
	injReplicaDiverge
	injBadProof
)

// injection is armed once set-up is done, so the violation shows in the
// measured traffic rather than failing the warm-up.
type injection struct {
	mode  injMode
	armed atomic.Bool
}

func (i *injection) is(m injMode) bool { return i != nil && i.mode == m && i.armed.Load() }

type subscriber[H any] interface {
	Subscribe(id drbac.DelegationID, fn H) (cancel func())
}

// faultyWallet is a WalletService decorator that breaks the home wallet in
// one of the ways the checks must catch: it serves stale proofs, answers
// wrongly, or drops a revocation push. H is the wallet's subscription
// handler type, inferred from the wallet.
type faultyWallet[H ~func(drbac.Event)] struct {
	*drbac.Wallet
	next drbac.WalletService
	sub  subscriber[H]
	inj  *injection

	mu      sync.Mutex
	cached  map[string]*drbac.Proof
	n       int
	dropped bool
}

func newFaultyWallet[H ~func(drbac.Event)](w *drbac.Wallet, next drbac.WalletService, sub subscriber[H], inj *injection) *faultyWallet[H] {
	return &faultyWallet[H]{Wallet: w, next: next, sub: sub, inj: inj, cached: map[string]*drbac.Proof{}}
}

func (f *faultyWallet[H]) QueryDirect(q drbac.Query) (*drbac.Proof, error) {
	switch {
	case f.inj != nil && f.inj.mode == injStaleProof:
		// Proofs are remembered from the warm-up on and served again,
		// revoked or not, once the injection is armed.
		key := fmt.Sprint(q.Subject, q.Object)
		f.mu.Lock()
		p, ok := f.cached[key]
		f.mu.Unlock()
		if ok && f.inj.is(injStaleProof) {
			return p, nil
		}
		p, err := f.next.QueryDirect(q)
		if err == nil {
			f.mu.Lock()
			f.cached[key] = p
			f.mu.Unlock()
		}
		return p, err
	case f.inj.is(injWrongAnswer):
		p, err := f.next.QueryDirect(q)
		f.mu.Lock()
		f.n++
		wrong := err == nil && f.n%25 == 0
		f.mu.Unlock()
		if wrong {
			return nil, fmt.Errorf("injected: %w", drbac.ErrNoProof)
		}
		return p, err
	}
	return f.next.QueryDirect(q)
}

func (f *faultyWallet[H]) QuerySubject(s drbac.Subject, c []drbac.Constraint) []*drbac.Proof {
	return f.next.QuerySubject(s, c)
}

func (f *faultyWallet[H]) QueryObject(r drbac.Role, c []drbac.Constraint) []*drbac.Proof {
	return f.next.QueryObject(r, c)
}

func (f *faultyWallet[H]) Publish(d *drbac.Delegation, support ...*drbac.Proof) error {
	return f.next.Publish(d, support...)
}

func (f *faultyWallet[H]) Revoke(id drbac.DelegationID, by drbac.EntityID) error {
	return f.next.Revoke(id, by)
}

func (f *faultyWallet[H]) Subscribe(id drbac.DelegationID, fn H) (cancel func()) {
	if f.inj.mode != injDropPush {
		return f.sub.Subscribe(id, fn)
	}
	return f.sub.Subscribe(id, H(func(ev drbac.Event) {
		f.mu.Lock()
		drop := f.inj.is(injDropPush) && ev.Kind == drbac.EventRevoked && !f.dropped
		f.dropped = f.dropped || drop
		f.mu.Unlock()
		if !drop {
			fn(ev)
		}
	}))
}

// divergentStore loses the first revocation it is asked to record, so the
// replica ends up holding a different revocation set than the primary.
type divergentStore[S any] struct {
	drbac.WalletStore
	seg  segmentStore[S]
	once sync.Once
}

func newDivergentStore[S any](outer drbac.WalletStore, inner segmentStore[S]) *divergentStore[S] {
	return &divergentStore[S]{WalletStore: outer, seg: inner}
}

func (s *divergentStore[S]) SnapshotSegments(afterSeq uint64) (S, error) {
	return s.seg.SnapshotSegments(afterSeq)
}

func (s *divergentStore[S]) AddRevocation(seq uint64, id drbac.DelegationID, at time.Time) (bool, error) {
	lost := false
	s.once.Do(func() { lost = true })
	if lost {
		return true, nil
	}
	return s.WalletStore.AddRevocation(seq, id, at)
}
