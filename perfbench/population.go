package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"drbac"
)

// issuedAt stamps every generated delegation, so a seed fixes every
// delegation ID and signature (Ed25519 signing is deterministic).
var issuedAt = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

// bundle is one generated delegation with the support proofs it is stored
// with (right-of-assignment proofs for third-party delegations).
type bundle struct {
	d       *drbac.Delegation
	support []*drbac.Proof
	home    int
}

// pair is one authorization question and its setup-time answer.
type pair struct {
	subject drbac.Subject
	object  drbac.Role
	want    bool
}

// population is everything a seed fixes: identities, the delegations each
// home stores, the query and discovery pairs with their expected answers,
// and the pools of shortcut delegations that publishes and revokes use.
type population struct {
	gen      *drbac.Identity
	homeIDs  []*drbac.Identity
	entities []drbac.Entity

	stored []bundle // published at setup, by home

	revocable []bundle // stored at setup on home 0, revoked in the run
	fresh     []bundle // signed at setup, published in the run

	queryPairs    []pair // direct queries at home 0
	subjects      []drbac.Subject
	objects       []drbac.Role
	discoverPairs []pair
	subjectHome   map[drbac.Subject]int
	objectHome    map[drbac.Role]int

	digest string
}

type org struct {
	id, admin *drbac.Identity
	home      int
	teams     []drbac.Role
	member    drbac.Role
	partner   drbac.Role
	res       []drbac.Role
	users     []*drbac.Identity
}

// seeded derives a 32-byte identity seed from the workload seed and a label.
func seeded(seed int64, label string) []byte {
	h := sha256.New()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(label))
	return h.Sum(nil)
}

func identity(seed int64, name string) (*drbac.Identity, error) {
	return drbac.IdentityFromSeed(name, seeded(seed, name))
}

// identities derives n identities named prefix0..prefix<n-1> in parallel.
func identities(seed int64, prefix string, n int) ([]*drbac.Identity, error) {
	out := make([]*drbac.Identity, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				out[i], errs[i] = identity(seed, fmt.Sprintf("%s%d", prefix, i))
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// signer issues delegations with nonces drawn from the seeded rng and the
// fixed issuance instant, so every result depends only on the seed. The
// signatures are computed in parallel by finish.
type signer struct {
	rng     *rand.Rand
	pending []*drbac.Delegation
	issuers []*drbac.Identity
}

func (sg *signer) sign(issuer *drbac.Identity, subject drbac.Subject, subjectEntity *drbac.Entity, object drbac.Role, attrs []drbac.AttributeSetting) *drbac.Delegation {
	d := &drbac.Delegation{
		Subject:       subject,
		SubjectEntity: subjectEntity,
		Object:        object,
		Issuer:        issuer.Entity(),
		Attributes:    attrs,
		IssuedAt:      issuedAt,
		Nonce:         sg.rng.Uint64(),
	}
	sg.pending = append(sg.pending, d)
	sg.issuers = append(sg.issuers, issuer)
	return d
}

func (sg *signer) finish() {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sg.pending); i += workers {
				d := sg.pending[i]
				d.Signature = sg.issuers[i].SignBytes(d.SigningBytes())
			}
		}(w)
	}
	wg.Wait()
	sg.pending, sg.issuers = nil, nil
}

// buildPopulation generates the workload's coalition from seed. Orgs are
// spread round-robin over the homes; every chain runs
// user -> org.team -> org.member -> other.partner -> other.res, with
// third-party memberships (issued by the org's admin under a support proof)
// and valued attributes on the cross-org partner grants. The generator's
// own namespace holds grants reachable from home-0 members; its shortcut
// delegations [user -> gen.grant] are redundant with those chains, so
// publishing or revoking one never changes an expected answer.
func buildPopulation(w *workload, seed int64, freshN, revocableN int) (*population, error) {
	rng := rand.New(rand.NewSource(seed))
	sg := &signer{rng: rng}
	p := &population{subjectHome: map[drbac.Subject]int{}, objectHome: map[drbac.Role]int{}}
	var err error
	if p.gen, err = identity(seed, "gen"); err != nil {
		return nil, err
	}
	p.entities = append(p.entities, p.gen.Entity())
	for h := 0; h < w.homes; h++ {
		id, err := identity(seed, fmt.Sprintf("home%d", h))
		if err != nil {
			return nil, err
		}
		p.homeIDs = append(p.homeIDs, id)
		p.entities = append(p.entities, id.Entity())
	}

	adj := map[drbac.Subject][]drbac.Role{}
	held := map[drbac.Role]bool{} // roles some principal is granted directly
	add := func(b bundle) {
		p.stored = append(p.stored, b)
		adj[b.d.Subject] = append(adj[b.d.Subject], b.d.Object)
		if b.d.Subject.IsEntity() {
			held[b.d.Object] = true
		}
	}

	orgs := make([]*org, w.orgs)
	for o := range orgs {
		og := &org{home: o % w.homes}
		if og.id, err = identity(seed, fmt.Sprintf("org%d", o)); err != nil {
			return nil, err
		}
		if og.admin, err = identity(seed, fmt.Sprintf("admin%d", o)); err != nil {
			return nil, err
		}
		p.entities = append(p.entities, og.id.Entity(), og.admin.Entity())
		ns := og.id.ID()
		for t := 0; t < w.teams; t++ {
			og.teams = append(og.teams, drbac.NewRole(ns, fmt.Sprintf("team%d", t)))
		}
		og.member = drbac.NewRole(ns, "member")
		og.partner = drbac.NewRole(ns, "partner")
		for r := 0; r < w.resPerOrg; r++ {
			og.res = append(og.res, drbac.NewRole(ns, fmt.Sprintf("res%d", r)))
		}
		for _, r := range append(append([]drbac.Role{og.member, og.partner}, og.teams...), og.res...) {
			p.objectHome[r] = og.home
			p.subjectHome[drbac.SubjectRole(r)] = og.home
		}
		orgs[o] = og
	}
	grants := make([]drbac.Role, w.grants)
	for k := range grants {
		grants[k] = drbac.NewRole(p.gen.ID(), fmt.Sprintf("grant%d", k))
		p.objectHome[grants[k]] = 0
		p.subjectHome[drbac.SubjectRole(grants[k])] = 0
	}

	for _, og := range orgs {
		// Right-of-assignment for the admin over every team.
		supports := make([]*drbac.Proof, len(og.teams))
		for t, team := range og.teams {
			ad := og.admin.Entity()
			d := sg.sign(og.id, drbac.SubjectEntity(og.admin.ID()), &ad, team.Assignment(), nil)
			add(bundle{d: d, home: og.home})
			if supports[t], err = drbac.NewProof(drbac.ProofStep{Delegation: d}); err != nil {
				return nil, err
			}
			add(bundle{d: sg.sign(og.id, drbac.SubjectRole(team), nil, og.member, nil), home: og.home})
		}
		for r, res := range og.res {
			attrs := []drbac.AttributeSetting{{Attr: drbac.AttributeRef{Namespace: og.id.ID(), Name: "bw"}, Op: drbac.OpMinimum, Value: float64(100 + 10*r)}}
			add(bundle{d: sg.sign(og.id, drbac.SubjectRole(og.partner), nil, res, attrs), home: og.home})
		}
		if og.users, err = identities(seed, fmt.Sprintf("user%s-", og.id.ID()[:8]), w.usersPerOrg); err != nil {
			return nil, err
		}
		for _, user := range og.users {
			p.entities = append(p.entities, user.Entity())
			p.subjectHome[drbac.SubjectEntity(user.ID())] = og.home
			n := 1 + rng.Intn(w.teamsPerUser)
			for i := 0; i < n; i++ {
				t := rng.Intn(len(og.teams))
				ue := user.Entity()
				if rng.Float64() < w.thirdParty {
					d := sg.sign(og.admin, drbac.SubjectEntity(user.ID()), &ue, og.teams[t], nil)
					add(bundle{d: d, support: []*drbac.Proof{supports[t]}, home: og.home})
				} else {
					add(bundle{d: sg.sign(og.id, drbac.SubjectEntity(user.ID()), &ue, og.teams[t], nil), home: og.home})
				}
			}
		}
	}
	// Cross-org partnerships: org q's members become org p's partners, with
	// a valued bandwidth cap along the coalition edge. As in the paper's
	// Figure 2, the coalition delegation is stored at the subject's home,
	// so discovery runs forward from the requester's credentials.
	for _, op := range orgs {
		for _, qi := range rng.Perm(len(orgs))[:w.partnersPerOrg] {
			oq := orgs[qi]
			attrs := []drbac.AttributeSetting{{Attr: drbac.AttributeRef{Namespace: op.id.ID(), Name: "bw"}, Op: drbac.OpMinimum, Value: float64(50 + qi)}}
			add(bundle{d: sg.sign(op.id, drbac.SubjectRole(oq.member), nil, op.partner, attrs), home: oq.home})
		}
	}
	// Generator grants, reachable from home-0 members only.
	home0 := []*org{}
	for _, og := range orgs {
		if og.home == 0 {
			home0 = append(home0, og)
		}
	}
	for _, og := range home0 {
		for _, k := range rng.Perm(len(grants))[:(len(grants)+1)/2] {
			add(bundle{d: sg.sign(p.gen, drbac.SubjectRole(og.member), nil, grants[k], nil), home: 0})
		}
	}

	reached := map[drbac.Subject]map[drbac.Role]bool{}
	reach := func(s drbac.Subject) map[drbac.Role]bool {
		if seen, ok := reached[s]; ok {
			return seen
		}
		seen := map[drbac.Role]bool{}
		reached[s] = seen
		frontier := []drbac.Subject{s}
		for len(frontier) > 0 {
			var next []drbac.Subject
			for _, n := range frontier {
				for _, r := range adj[n] {
					if !seen[r] {
						seen[r] = true
						next = append(next, drbac.SubjectRole(r))
					}
				}
			}
			frontier = next
		}
		return seen
	}

	type userRef struct {
		og *org
		u  int
	}
	var home0Users []userRef
	for _, og := range home0 {
		for u := range og.users {
			home0Users = append(home0Users, userRef{og, u})
		}
	}
	// Direct-query pairs at home 0: 90% with a proof, 10% without.
	var pos, neg []pair
	allRes := []drbac.Role{}
	for _, og := range orgs {
		allRes = append(allRes, og.res...)
	}
	for len(pos) < w.pairs*9/10 || len(neg) < w.pairs/10 {
		ur := home0Users[rng.Intn(len(home0Users))]
		s := drbac.SubjectEntity(ur.og.users[ur.u].ID())
		var obj drbac.Role
		switch rng.Intn(3) {
		case 0:
			obj = ur.og.member
		case 1:
			obj = grants[rng.Intn(len(grants))]
		default:
			obj = allRes[rng.Intn(len(allRes))]
		}
		if p.objectHome[obj] != 0 {
			continue
		}
		pr := pair{subject: s, object: obj, want: reach(s)[obj]}
		if pr.want && len(pos) < w.pairs*9/10 {
			pos = append(pos, pr)
		} else if !pr.want && len(neg) < w.pairs/10 {
			neg = append(neg, pr)
		}
	}
	p.queryPairs = append(pos, neg...)
	rng.Shuffle(len(p.queryPairs), func(i, j int) { p.queryPairs[i], p.queryPairs[j] = p.queryPairs[j], p.queryPairs[i] })
	// Shortcut pools: [user -> gen.grant] for queried pairs that already
	// hold the grant, so revoking one invalidates an answer in use.
	var grantPairs []pair
	for _, pr := range p.queryPairs {
		if pr.want && pr.object.Namespace == p.gen.ID() {
			grantPairs = append(grantPairs, pr)
		}
	}
	var shortcutCands []pair
	for len(shortcutCands) < freshN+revocableN && len(grantPairs) > 0 {
		shortcutCands = append(shortcutCands, grantPairs[rng.Intn(len(grantPairs))])
	}
	if len(shortcutCands) < freshN+revocableN {
		return nil, fmt.Errorf("population has no queried grant pairs to shortcut")
	}
	entityOf := map[drbac.EntityID]drbac.Entity{}
	for _, e := range p.entities {
		entityOf[e.ID()] = e
	}
	for i, c := range shortcutCands {
		e := entityOf[c.subject.Entity]
		b := bundle{d: sg.sign(p.gen, c.subject, &e, c.object, nil)}
		if i < revocableN {
			p.revocable = append(p.revocable, b)
		} else {
			p.fresh = append(p.fresh, b)
		}
	}

	for _, ur := range home0Users {
		p.subjects = append(p.subjects, drbac.SubjectEntity(ur.og.users[ur.u].ID()))
	}
	for _, og := range home0 {
		for _, team := range og.teams {
			if len(adj[drbac.SubjectRole(team)]) > 0 && held[team] {
				p.objects = append(p.objects, team)
			}
		}
	}

	// Discovery pairs: users of every home against resources of every
	// home that they reach, in a seeded order. (An unreachable pair makes
	// the agent walk every holder of the resource; negative answers are
	// checked on direct queries instead.)
	var allUsers []drbac.Subject
	for _, og := range orgs {
		for _, u := range og.users {
			allUsers = append(allUsers, drbac.SubjectEntity(u.ID()))
		}
	}
	rng.Shuffle(len(allUsers), func(i, j int) { allUsers[i], allUsers[j] = allUsers[j], allUsers[i] })
	for _, s := range allUsers {
		r := reach(s)
		var ok []drbac.Role
		for _, res := range allRes {
			if r[res] {
				ok = append(ok, res)
			}
		}
		if len(ok) > 0 {
			p.discoverPairs = append(p.discoverPairs, pair{subject: s, object: ok[rng.Intn(len(ok))], want: true})
		}
	}

	if len(p.discoverPairs) == 0 {
		return nil, fmt.Errorf("population has no discovery pairs")
	}
	sg.finish()
	h := sha256.New()
	for _, set := range [][]bundle{p.stored, p.revocable, p.fresh} {
		for _, b := range set {
			h.Write([]byte(b.d.ID()))
		}
	}
	for _, set := range [][]pair{p.queryPairs, p.discoverPairs} {
		for _, pr := range set {
			fmt.Fprintf(h, "%s>%s=%v;", pr.subject, pr.object, pr.want)
		}
	}
	p.digest = hex.EncodeToString(h.Sum(nil))[:16]
	sort.SliceStable(p.stored, func(i, j int) bool { return p.stored[i].home < p.stored[j].home })
	return p, nil
}
