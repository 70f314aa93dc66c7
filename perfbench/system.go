package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"drbac"
)

// server is one served wallet endpoint: a home, a shard or a gateway.
type server struct {
	srv   *drbac.WalletServer
	store interface{ Close() error }
	reg   *drbac.MetricsRegistry
}

// system is one set-up instance of a workload: the servers, the replica,
// the relying party's discovery agent and the generator's two connections.
type system struct {
	w   *workload
	pop *population
	dir string
	sig *drbac.SigCache
	tr  *tracer
	inj *injection
	tpl *templates

	servers  []server
	addrs    []string // per home
	primary  *drbac.Wallet
	primReg  *drbac.MetricsRegistry
	primDir  string
	gateway  *drbac.ClusterWallet
	replica  *drbac.Wallet
	follower *drbac.ReplicaFollower
	repStore interface{ Close() error }
	agent    *drbac.DiscoveryAgent
	agentMu  sync.Mutex // the relying party runs one discovery at a time
	conns    [2]*drbac.WalletClient

	bootstrap time.Duration
	monitors  *monitors

	phases   []string // set-up phase timings, for the report
	mark     time.Time
	untimed  time.Duration // spent writing and copying log templates
	markSkip time.Duration // untimed as of mark
}

// lap records how long the set-up phase just finished took, leaving out
// the log templates' share.
func (s *system) lap(name string) {
	now := time.Now()
	took := now.Sub(s.mark) - (s.untimed - s.markSkip)
	s.phases = append(s.phases, fmt.Sprintf("%s=%.3fs", name, took.Seconds()))
	s.mark, s.markSkip = now, s.untimed
}

// setupTime is how long set-up took, the log templates' share left out.
func (s *system) setupTime(start time.Time) time.Duration {
	return time.Since(start) - s.untimed
}

func (s *system) dialer(id *drbac.Identity, peer bool) drbac.Dialer {
	var d drbac.Dialer = &drbac.TCPDialer{Identity: id}
	if s.tr != nil {
		d = &tracedDialer{inner: d, tr: s.tr, peer: peer}
	}
	return d
}

func (s *system) listen(id *drbac.Identity) (drbac.Listener, error) {
	ln, err := drbac.ListenTCP("127.0.0.1:0", id)
	if err != nil {
		return nil, err
	}
	if s.tr != nil {
		return tracedListener{Listener: ln, tr: s.tr}, nil
	}
	return ln, nil
}

// openStore opens a log store in the system's directory holding bundles.
// The bundles are appended once per run, into a template that every
// set-up copies: set-up time covers opening and replaying a durable log,
// not the harness writing one record at a time past the wallet.
func (s *system) openStore(name string, bundles []bundle, role storeRole) (drbac.WalletStore, interface{ Close() error }, string, error) {
	dir := filepath.Join(s.dir, name)
	start := time.Now()
	src, err := s.tpl.filled(name, bundles)
	if err == nil {
		err = copyDir(src, dir)
	}
	s.untimed += time.Since(start)
	if err != nil {
		return nil, nil, "", err
	}
	ls, err := drbac.OpenLogStore(dir)
	if err != nil {
		return nil, nil, "", err
	}
	var st drbac.WalletStore = ls
	if s.tr != nil {
		st = newTracedStore(ls, s.tr, role)
	}
	if s.inj != nil && role == storeReplica && s.inj.mode == injReplicaDiverge {
		st = newDivergentStore(st, ls)
	}
	return st, ls, dir, nil
}

// templates holds one run's pre-written log stores, by name. A seed fixes
// the population, so every set-up of a run stores the same bundles.
type templates struct {
	dir  string
	done map[string]bool
}

func newTemplates(tmp string) (*templates, error) {
	dir, err := os.MkdirTemp(tmp, "tpl-")
	if err != nil {
		return nil, err
	}
	return &templates{dir: dir, done: map[string]bool{}}, nil
}

func (t *templates) remove() { _ = os.RemoveAll(t.dir) }

// filled returns the directory of the template store name, writing the
// bundles into it on first use.
func (t *templates) filled(name string, bundles []bundle) (string, error) {
	dir := filepath.Join(t.dir, name)
	if t.done[name] {
		return dir, nil
	}
	// Concurrent appends that straddle a segment roll can race the group
	// commit into fsyncing a closed segment, which fails the store for
	// good; a failed load starts over in an empty directory.
	for attempt := 1; ; attempt++ {
		ls, err := drbac.OpenLogStore(dir)
		if err != nil {
			return "", err
		}
		err = fill(ls, bundles)
		if cerr := ls.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			break
		}
		if attempt == 3 {
			return "", fmt.Errorf("load %s: %w", name, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return "", err
		}
	}
	t.done[name] = true
	return dir, nil
}

// copyDir copies the regular files of a closed store directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o700)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, raw, 0o600)
	})
}

// fill appends bundles with seq numbers in generation order. Writers run
// concurrently so the group commit batches their fsyncs, as concurrent
// publishers' would.
func fill(st drbac.WalletStore, bundles []bundle) error {
	const writers = 32
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bundles); i += writers {
				if err := st.PutDelegation(uint64(i+1), bundles[i].d, bundles[i].support); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *system) newWallet(owner *drbac.Identity, st drbac.WalletStore) (*drbac.Wallet, *drbac.MetricsRegistry) {
	reg := drbac.NewMetricsRegistry()
	return drbac.NewWallet(drbac.WalletConfig{
		Owner:    owner,
		Store:    st,
		SigCache: s.sig,
		Obs:      drbac.NewObs(nil, reg),
	}), reg
}

func (s *system) serve(svc drbac.WalletService, id *drbac.Identity, guard drbac.ClusterGuard, store interface{ Close() error }, reg *drbac.MetricsRegistry) (string, error) {
	ln, err := s.listen(id)
	if err != nil {
		return "", err
	}
	s.servers = append(s.servers, server{srv: drbac.ServeWalletCluster(svc, ln, guard), store: store, reg: reg})
	return ln.Addr(), nil
}

// setUp builds the population and everything the workload runs against,
// then warms the caches. The returned system is ready for the generator.
func setUp(ctx context.Context, w *workload, seed int64, pools poolSizes, tr *tracer, inj *injection, tmp string, tpl *templates) (*system, error) {
	start := time.Now()
	pop, err := buildPopulation(w, seed, pools.fresh, pools.revocable)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "sys-")
	if err != nil {
		return nil, err
	}
	s := &system{w: w, pop: pop, dir: dir, sig: drbac.NewSigCache(0), tr: tr, inj: inj, tpl: tpl, mark: start}
	s.lap("population")
	if err := s.start(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) start(ctx context.Context) error {
	pop, w := s.pop, s.w
	byHome := make([][]bundle, w.homes)
	for _, b := range pop.stored {
		byHome[b.home] = append(byHome[b.home], b)
	}
	// The revocable shortcuts live on home 0 with the rest of its state.
	for _, b := range pop.revocable {
		byHome[0] = append(byHome[0], bundle{d: b.d, home: 0})
	}
	s.addrs = make([]string, w.homes)
	for h := 0; h < w.homes; h++ {
		id := pop.homeIDs[h]
		if w.cluster && h == w.homes-1 {
			addr, err := s.startCluster(ctx, h, byHome[h])
			if err != nil {
				return err
			}
			s.addrs[h] = addr
			continue
		}
		role := storeHome
		if h == 0 {
			role = storePrimary
		}
		st, closer, dir, err := s.openStore(fmt.Sprintf("home%d", h), byHome[h], role)
		if err != nil {
			return err
		}
		wal, reg := s.newWallet(id, st)
		var svc drbac.WalletService = wal
		if s.tr != nil {
			svc = &tracedWallet{Wallet: wal, t: s.tr.layer(h == 0, false)}
		}
		if h == 0 {
			s.primary, s.primReg, s.primDir = wal, reg, dir
			if s.inj != nil {
				svc = newFaultyWallet(wal, svc, wal, s.inj)
			}
		}
		addr, err := s.serve(svc, id, nil, closer, reg)
		if err != nil {
			_ = closer.Close()
			return err
		}
		s.addrs[h] = addr
	}

	s.lap("homes")
	if w.replica {
		if err := s.startReplica(ctx, byHome[0]); err != nil {
			return err
		}
		s.lap("replica")
	}

	// The relying party's discovery agent, with a static tag book naming
	// every principal's and role's home.
	rp, err := identity(0, "relying-party")
	if err != nil {
		return err
	}
	local, _ := s.newWallet(rp, nil)
	s.agent = drbac.NewDiscoveryAgent(drbac.DiscoveryConfig{Local: local, Dialer: s.dialer(rp, true)})
	for subj, h := range pop.subjectHome {
		s.agent.RegisterTag(subj, drbac.DiscoveryTag{
			Home: s.addrs[h], TTL: time.Hour, Subject: drbac.SubjectSearch,
		})
	}

	for i := range s.conns {
		c, err := drbac.DialWallet(ctx, s.dialer(pop.gen, false), s.addrs[0])
		if err != nil {
			return fmt.Errorf("dial home 0: %w", err)
		}
		s.conns[i] = c
	}
	s.lap("agent+dial")
	s.monitors = newMonitors()
	for _, b := range pop.revocable {
		id := b.d.ID()
		if _, err := s.conns[1].Subscribe(ctx, id, s.monitors.handler); err != nil {
			return fmt.Errorf("monitor %s: %w", id.Short(), err)
		}
	}
	s.lap("monitors")
	err = s.warm(ctx)
	s.lap("warm")
	return err
}

// warm fills the home wallet's proof cache with up to its capacity of
// query pairs and opens the agent's peer connections.
func (s *system) warm(ctx context.Context) error {
	pairs := s.pop.queryPairs
	if len(pairs) > 2000 {
		pairs = pairs[:2000]
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.conns[g%2]
			for i := g; i < len(pairs); i += 8 {
				_, err := c.QueryDirect(ctx, pairs[i].subject, pairs[i].object, nil, drbac.SearchForward)
				if (err == nil) != pairs[i].want {
					errs[g] = fmt.Errorf("warm-up query %s -> %s: got %v, want proof=%v", pairs[i].subject, pairs[i].object, err, pairs[i].want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// One discovery per home opens the agent's pooled connections.
	seen := map[int]bool{}
	for _, p := range s.pop.discoverPairs {
		h := s.pop.subjectHome[drbac.SubjectRole(p.object)]
		if seen[h] || !p.want {
			continue
		}
		seen[h] = true
		if _, err := s.agent.Discover(ctx, drbac.Query{Subject: p.subject, Object: p.object}, drbac.DiscoverAuto, nil); err != nil {
			return fmt.Errorf("warm-up discovery: %w", err)
		}
	}
	return nil
}

func (s *system) startCluster(ctx context.Context, h int, bundles []bundle) (string, error) {
	id := s.pop.homeIDs[h]
	var lns []drbac.Listener
	var groups [][]string
	var shardIDs []*drbac.Identity
	for i := 0; i < 2; i++ {
		sid, err := identity(0, fmt.Sprintf("home%d-shard%d", h, i))
		if err != nil {
			return "", err
		}
		ln, err := s.listen(sid)
		if err != nil {
			return "", err
		}
		lns = append(lns, ln)
		shardIDs = append(shardIDs, sid)
		groups = append(groups, []string{ln.Addr()})
	}
	m, err := drbac.NewShardMap(groups)
	if err != nil {
		return "", err
	}
	for i, ln := range lns {
		var mine []bundle
		for _, b := range bundles {
			if m.OwnerOf(b.d).ID == i {
				mine = append(mine, b)
			}
		}
		st, closer, _, err := s.openStore(fmt.Sprintf("home%d-shard%d", h, i), mine, storeHome)
		if err != nil {
			return "", err
		}
		wal, reg := s.newWallet(shardIDs[i], st)
		node, err := drbac.NewClusterNode(i, m, wal.Obs())
		if err != nil {
			_ = closer.Close()
			return "", err
		}
		var svc drbac.WalletService = wal
		if s.tr != nil {
			svc = &tracedWallet{Wallet: wal, t: s.tr.layer(false, true)}
		}
		s.servers = append(s.servers, server{srv: drbac.ServeWalletCluster(svc, ln, node), store: closer, reg: reg})
	}
	reg := drbac.NewMetricsRegistry()
	gw, err := drbac.NewClusterWallet(drbac.ClusterWalletConfig{
		Map: m, Dialer: s.dialer(id, true), Identity: id, Obs: drbac.NewObs(nil, reg),
	})
	if err != nil {
		return "", err
	}
	s.gateway = gw
	var svc drbac.WalletService = gw
	if s.tr != nil {
		svc = &tracedGateway{ClusterWallet: gw, tr: s.tr}
	}
	return s.serve(svc, id, gw.Guard(), nil, reg)
}

// startReplica starts home 0's read replica the way a replica restarts:
// from its own durable copy of the primary's log, which the follower then
// reconciles against the segments the primary ships.
func (s *system) startReplica(ctx context.Context, bundles []bundle) error {
	rid, err := identity(0, "replica")
	if err != nil {
		return err
	}
	st, closer, _, err := s.openStore("replica", bundles, storeReplica)
	if err != nil {
		return err
	}
	s.repStore = closer
	s.replica, _ = s.newWallet(rid, st)
	start := time.Now()
	f, err := drbac.StartReplica(drbac.ReplicaConfig{
		Local: s.replica, Addrs: []string{s.addrs[0]}, Dialer: s.dialer(rid, false),
	})
	if err != nil {
		return err
	}
	s.follower = f
	if err := s.waitReplica(ctx, 30*time.Second); err != nil {
		return err
	}
	s.bootstrap = time.Since(start)
	if f.Status().SegmentSyncs == 0 {
		return fmt.Errorf("replica bootstrapped without segment shipping")
	}
	return nil
}

// waitReplica waits until the follower has applied the primary's seq and
// tails its changelog stream.
func (s *system) waitReplica(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for st := s.follower.Status(); !st.Connected || st.AppliedSeq < s.primary.Seq(); st = s.follower.Status() {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica stuck at seq %d of %d", s.follower.Status().AppliedSeq, s.primary.Seq())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// close stops everything the system started and removes its files.
func (s *system) close() {
	for _, c := range s.conns {
		if c != nil {
			c.Close()
		}
	}
	if s.agent != nil {
		s.agent.Close()
	}
	if s.follower != nil {
		s.follower.Close()
	}
	if s.repStore != nil {
		_ = s.repStore.Close()
	}
	for i := len(s.servers) - 1; i >= 0; i-- {
		s.servers[i].srv.Close()
	}
	if s.gateway != nil {
		s.gateway.Close()
	}
	for _, sv := range s.servers {
		if sv.store != nil {
			_ = sv.store.Close()
		}
	}
	_ = os.RemoveAll(s.dir)
}
