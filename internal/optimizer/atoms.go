package optimizer

import (
	"physdes/internal/physical"
	"physdes/internal/sqlparse"
)

// This file implements CoPhy-style atomic-configuration what-if sharing:
// instead of treating every (statement, configuration) pair as an
// independent what-if call, a configuration is decomposed into the small
// "atomic" sub-configurations the cost model can actually read for that
// statement, each (statement, atom) pair is costed once, and the full
// configuration's cost is reassembled as a minimum over its atoms. With
// overlapping candidate configurations — the k=500 regime of Section 7.2,
// where candidates are perturbations around a tuned base — most pairs
// share all their atoms with earlier pairs and cost nothing.
//
// The decomposition is exact, not approximate. Two facts about the cost
// model make that possible:
//
//  1. Every configuration read is mediated by cfg.IndexesOn(t) for a table
//     t the statement references, or by cfg.Views() filtered to views whose
//     tables are a subset of the statement's tables (SELECT) or that
//     contain the modified table (DML). Projecting the configuration onto
//     those *relevant* structures therefore cannot change the cost — the
//     evaluator never observes the dropped structures — provided the
//     projection keeps the by-ID ordering (it does: NewConfiguration
//     sorts), because indexNLCost takes the FIRST lead-matching index in
//     ID order rather than a minimum.
//
//  2. For a single-table SELECT with no matching views the plan cost is
//     g(bestAccess, bestAccessOrdered) where both arms are minima over the
//     per-index candidate paths plus the heap baseline, and g is monotone
//     in both arguments — so the minimum distributes over singleton atoms:
//     cost(cfg) = min over i∈cfg of cost({i}), with the empty atom
//     supplying the heap baseline. That is the maximally-shared form: a
//     singleton atom's cost is reused by every configuration containing
//     the index.
//
// Multi-table statements, DML, and view-bearing configurations use the
// single projection atom of fact 1 (the join arms and view-substitution
// comparisons read several structures jointly, so per-index minima would
// not be exact); single-table SELECTs use the singleton atoms of fact 2.

// DefaultMaxAtomWidth bounds the number of structures a projection atom
// may hold. Projections wider than the bound (possible only for
// statements referencing many tables under very wide configurations) fall
// back to one what-if call on the full configuration, keeping the atom
// keys small and the sharing profitable.
const DefaultMaxAtomWidth = 16

// AtomPlan is the result of decomposing one (statement, configuration)
// evaluation: the atoms whose cost minimum reproduces the direct cost
// exactly. Fallback marks a plan over the width bound, whose one atom is
// the full configuration.
type AtomPlan struct {
	Atoms    []*physical.Configuration
	Fallback bool
}

// emptyAtom is the shared zero-structure atom: it contributes the heap-scan
// baseline to every singleton decomposition.
var emptyAtom = physical.NewConfiguration("atom")

// Decompose splits the evaluation of a under cfg into atoms such that the
// minimum of the atoms' costs equals the direct cost of cfg exactly
// (TestAtomicCostEquivalence pins this bit-for-bit). maxWidth bounds the
// projection atom's structure count (<= 0 selects DefaultMaxAtomWidth).
func Decompose(a *sqlparse.Analysis, cfg *physical.Configuration, maxWidth int) AtomPlan {
	return decomposePlan(a, cfg, maxWidth, func(ix *physical.Index) *physical.Configuration {
		return physical.NewConfiguration("atom", ix)
	})
}

// decomposePlan is Decompose with a pluggable singleton-atom constructor so
// the memo can intern the (heavily reused) singleton configurations.
func decomposePlan(a *sqlparse.Analysis, cfg *physical.Configuration, maxWidth int, singleton func(*physical.Index) *physical.Configuration) AtomPlan {
	if maxWidth <= 0 {
		maxWidth = DefaultMaxAtomWidth
	}
	ixs, views := relevantStructures(a, cfg)
	if a.Kind == sqlparse.KindSelect && len(a.Tables) == 1 && len(views) == 0 {
		atoms := make([]*physical.Configuration, 0, len(ixs)+1)
		atoms = append(atoms, emptyAtom)
		for _, ix := range ixs {
			atoms = append(atoms, singleton(ix))
		}
		return AtomPlan{Atoms: atoms}
	}
	if len(ixs)+len(views) > maxWidth {
		return AtomPlan{Atoms: []*physical.Configuration{cfg}, Fallback: true}
	}
	structs := make([]physical.Structure, 0, len(ixs)+len(views))
	for _, ix := range ixs {
		structs = append(structs, ix)
	}
	for _, v := range views {
		structs = append(structs, v)
	}
	return AtomPlan{Atoms: []*physical.Configuration{physical.NewConfiguration("atom", structs...)}}
}

// relevantStructures projects cfg onto the structures the cost model can
// read while evaluating a. The filter is conservative: it may keep an
// index no plan arm ends up using, but it must never drop one any arm
// could read (FuzzAtomDecompose hunts for violations).
func relevantStructures(a *sqlparse.Analysis, cfg *physical.Configuration) ([]*physical.Index, []*physical.View) {
	var ixs []*physical.Index
	var views []*physical.View
	if a.Kind != sqlparse.KindSelect {
		// DML: the locate part seeks the modified table (bestAccess over all
		// its indexes) and the write part maintains every index on it and
		// every view containing it.
		ixs = append(ixs, cfg.IndexesOn(a.ModifiedTable)...)
		for _, t := range a.Tables {
			if t == a.ModifiedTable {
				continue
			}
			ixs = appendRelevantIndexes(ixs, a, t, cfg)
		}
		for _, v := range cfg.Views() {
			if v.HasTable(a.ModifiedTable) || tablesSubset(v.Tables, a.Tables) {
				views = append(views, v)
			}
		}
		return ixs, views
	}
	for _, t := range a.Tables {
		ixs = appendRelevantIndexes(ixs, a, t, cfg)
	}
	for _, v := range cfg.Views() {
		// viewMatches (plain or aggregate) requires every view table to be a
		// query table; anything else can never substitute.
		if tablesSubset(v.Tables, a.Tables) {
			views = append(views, v)
		}
	}
	return ixs, views
}

// appendRelevantIndexes keeps every index on table that some arm of the
// SELECT cost model can read: a sargable lead column (IndexSeek), a
// covering key+include set (IndexScan), a lead column equal to one of the
// table's join columns (merge-join and index-nested-loop arms — ALL such
// indexes are kept because indexNLCost takes the first in ID order, not
// the cheapest), or a lead column equal to the first ORDER BY column (the
// sort-elimination arm).
func appendRelevantIndexes(dst []*physical.Index, a *sqlparse.Analysis, table string, cfg *physical.Configuration) []*physical.Index {
	refCols := referencedColumns(a, table)
	order := orderColumns(a)
	for _, ix := range cfg.IndexesOn(table) {
		lead := ix.LeadColumn()
		keep := false
		if _, kind := findSargable(a, table, lead); kind != sargNone {
			keep = true
		}
		if !keep && ix.Covers(refCols) {
			keep = true
		}
		if !keep {
			for _, j := range a.Joins {
				if (j.Left.Table == table && j.Left.Column == lead) ||
					(j.Right.Table == table && j.Right.Column == lead) {
					keep = true
					break
				}
			}
		}
		if !keep && len(order) > 0 && order[0] == lead {
			keep = true
		}
		if keep {
			dst = append(dst, ix)
		}
	}
	return dst
}

func tablesSubset(sub, super []string) bool {
	for _, t := range sub {
		if !contains(super, t) {
			return false
		}
	}
	return true
}
