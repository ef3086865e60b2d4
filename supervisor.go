package rme

// This file is the supervised table: WithSupervisor makes every orphan's
// recovery start at its birth, so a supervised table needs no
// caller-driven Reclaim pattern. A crashed worker, a cancelled-but-granted
// async request, or an abandoned Grant each leave an orphaned lease that
// stalls its stripe until it is healed; on a supervised table whoever
// orphans the port also claims it and starts the same heal a Reclaim sweep
// runs (recovery Lock, Unlock, port back to the pool) on a goroutine of
// its own. That is the paper's recovery model — a crashed process
// recovers by re-running its passage as soon as it restarts — and the
// cooperative-abort model the abort fix-up already follows (see
// abortTenancy). Nothing polls, so a supervised table runs no background
// goroutine at all while nothing is orphaned, and its warm passages cost
// what an unsupervised table's do.
//
// # One healer per orphan
//
// The claim is the orphaned→reclaiming CAS on the port's epoch-stamped
// lease word, the same CAS a sweep's claim phase runs. A concurrent
// Reclaim that wins it keeps the orphan and heals it itself; otherwise the
// orphaning party does. Either way each orphan gets exactly one healer,
// from the moment it exists. That is what makes heal-at-birth safe
// without a sweep's claim-all-first and late-orphan rules: a heal may
// queue behind another orphan's dead node, but that orphan already has a
// running healer of its own, so no heal waits on an orphan nobody heals.
// The orphaning goroutine touches no protocol state after its guard: it
// starts the heal and carries on unwinding its panic (or returns, for an
// Abandon).
//
// A restored table's orphans were born in the dead incarnation, before any
// healer could exist, so finishInit claims them all and starts their heals
// before the table serves (see superviseRestored).

// SupervisorStats is the supervision's activity snapshot, reported inside
// TableStats. Every field is zero on a table without WithSupervisor.
type SupervisorStats struct {
	// PortsHealed counts the heals the supervision started: one per orphan
	// whose claim the orphaning party won, plus a restored image's orphans.
	PortsHealed uint64 `json:"ports_healed"`
}

// supervisorStats snapshots the supervision's counters (zero without one).
func (t *LockTable) supervisorStats() SupervisorStats {
	return SupervisorStats{PortsHealed: t.portsHealed.Load()}
}

// orphan marks a held tenancy's lessee dead — every death and abandonment
// of a table tenancy goes through here — and, on a supervised table,
// starts the orphan's heal.
func (sh *lockShard) orphan(l PortLease) {
	sh.pool.Orphan(l)
	sh.healAtBirth(l)
}

// healAtBirth claims l, which the caller has just orphaned, and starts its
// heal, unless the table is unsupervised (the orphan then waits for
// Reclaim) or a concurrent sweep's claim won the CAS (the sweep heals it).
func (sh *lockShard) healAtBirth(l PortLease) {
	if sh.healed == nil || !sh.pool.transition(l, leaseOrphaned, leaseReclaiming) {
		return
	}
	sh.healed.Add(1)
	go shardClaim{sh: sh, l: l}.heal()
}

// superviseRestored claims every orphan of a supervised table and starts
// its heal: a restored image's dead tenancies, which no orphaning party
// was alive to claim. Called from finishInit, before the table serves.
func (t *LockTable) superviseRestored() {
	for _, c := range t.claimOrphans(nil, nil) {
		t.portsHealed.Add(1)
		go c.heal()
	}
}
