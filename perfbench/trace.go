package main

import (
	"context"
	"sync/atomic"
	"time"

	"drbac"
)

// The traced run measures each layer from outside: decorators around the
// public interfaces the servers are built from time every call into a
// layer.

type timer struct{ n, ns atomic.Int64 }

func (t *timer) since(start time.Time) {
	t.n.Add(1)
	t.ns.Add(int64(time.Since(start)))
}

type walletTimers struct {
	direct, subject, object, publish, revoke timer
}

type storeRole int

const (
	storePrimary storeRole = iota
	storeHome
	storeReplica
)

type tracer struct {
	primary, homes, shards walletTimers
	gateway                timer

	// appends times store mutations by storeRole; the other homes' stores
	// take none after set-up.
	appends [3]timer

	send           timer
	frames, sentBy atomic.Int64

	dials timer // peer-pool dials (agent and gateway)
}

func (t *tracer) layer(primary, shard bool) *walletTimers {
	switch {
	case primary:
		return &t.primary
	case shard:
		return &t.shards
	}
	return &t.homes
}

// tracedWallet is the WalletService decorator around every served wallet.
// Embedding keeps the replication capability the server asserts.
type tracedWallet struct {
	*drbac.Wallet
	t *walletTimers
}

func (w *tracedWallet) QueryDirect(q drbac.Query) (*drbac.Proof, error) {
	start := time.Now()
	p, err := w.Wallet.QueryDirect(q)
	w.t.direct.since(start)
	return p, err
}

func (w *tracedWallet) QuerySubject(s drbac.Subject, c []drbac.Constraint) []*drbac.Proof {
	start := time.Now()
	ps := w.Wallet.QuerySubject(s, c)
	w.t.subject.since(start)
	return ps
}

func (w *tracedWallet) QueryObject(r drbac.Role, c []drbac.Constraint) []*drbac.Proof {
	start := time.Now()
	ps := w.Wallet.QueryObject(r, c)
	w.t.object.since(start)
	return ps
}

func (w *tracedWallet) Publish(d *drbac.Delegation, support ...*drbac.Proof) error {
	start := time.Now()
	err := w.Wallet.Publish(d, support...)
	w.t.publish.since(start)
	return err
}

func (w *tracedWallet) Revoke(id drbac.DelegationID, by drbac.EntityID) error {
	start := time.Now()
	err := w.Wallet.Revoke(id, by)
	w.t.revoke.since(start)
	return err
}

// tracedGateway decorates a served cluster gateway.
type tracedGateway struct {
	*drbac.ClusterWallet
	tr *tracer
}

func (g *tracedGateway) QueryDirect(q drbac.Query) (*drbac.Proof, error) {
	start := time.Now()
	p, err := g.ClusterWallet.QueryDirect(q)
	g.tr.gate(start)
	return p, err
}

func (g *tracedGateway) QuerySubject(s drbac.Subject, c []drbac.Constraint) []*drbac.Proof {
	start := time.Now()
	ps := g.ClusterWallet.QuerySubject(s, c)
	g.tr.gate(start)
	return ps
}

func (g *tracedGateway) QueryObject(r drbac.Role, c []drbac.Constraint) []*drbac.Proof {
	start := time.Now()
	ps := g.ClusterWallet.QueryObject(r, c)
	g.tr.gate(start)
	return ps
}

func (t *tracer) gate(start time.Time) { t.gateway.since(start) }

// segmentStore is a log store as the server sees it: a WalletStore that
// also ships its segments for replica bootstrap. S is the segment snapshot
// type, inferred from the store.
type segmentStore[S any] interface {
	drbac.WalletStore
	SnapshotSegments(afterSeq uint64) (S, error)
}

// tracedStore is the WalletStore decorator around every log store; it
// times the mutation path, group-commit fsync wait included.
type tracedStore[S any] struct {
	drbac.WalletStore
	seg segmentStore[S]
	t   *timer
}

func newTracedStore[S any](inner segmentStore[S], tr *tracer, role storeRole) *tracedStore[S] {
	return &tracedStore[S]{WalletStore: inner, seg: inner, t: &tr.appends[role]}
}

func (s *tracedStore[S]) SnapshotSegments(afterSeq uint64) (S, error) {
	return s.seg.SnapshotSegments(afterSeq)
}

func (s *tracedStore[S]) PutDelegation(seq uint64, d *drbac.Delegation, support []*drbac.Proof) error {
	start := time.Now()
	err := s.WalletStore.PutDelegation(seq, d, support)
	s.t.since(start)
	return err
}

func (s *tracedStore[S]) DeleteDelegation(seq uint64, id drbac.DelegationID) error {
	start := time.Now()
	err := s.WalletStore.DeleteDelegation(seq, id)
	s.t.since(start)
	return err
}

func (s *tracedStore[S]) AddRevocation(seq uint64, id drbac.DelegationID, at time.Time) (bool, error) {
	start := time.Now()
	added, err := s.WalletStore.AddRevocation(seq, id, at)
	s.t.since(start)
	return added, err
}

// Transport decorators: every frame a server or client sends is counted
// and its Send timed; peer-pool dials are counted and timed.

type tracedConn struct {
	drbac.Conn
	tr *tracer
}

func (c *tracedConn) Send(payload []byte) error {
	start := time.Now()
	err := c.Conn.Send(payload)
	c.tr.send.since(start)
	c.tr.frames.Add(1)
	c.tr.sentBy.Add(int64(len(payload)))
	return err
}

type tracedListener struct {
	drbac.Listener
	tr *tracer
}

func (l tracedListener) Accept() (drbac.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr}, nil
}

type tracedDialer struct {
	inner drbac.Dialer
	tr    *tracer
	peer  bool // a peer pool's dialer (agent or gateway), not the generator's
}

func (d *tracedDialer) Dial(ctx context.Context, addr string) (drbac.Conn, error) {
	start := time.Now()
	c, err := d.inner.Dial(ctx, addr)
	if d.peer {
		d.tr.dials.since(start)
	}
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: d.tr}, nil
}
