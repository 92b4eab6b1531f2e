package service

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"

	"repro/internal/core"
	"repro/internal/exec/result"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/storage"
)

// logFn is how a write body logs one mutation: record writes its WAL
// record (skipped without persistence), and only once it returns nil may
// the body apply that mutation to its transaction. A failure comes back
// as ErrDurability naming what.
type logFn func(what string, record func(*persist.Manager) error) error

// write runs one local catalog mutation from start to finish: under the
// commit mutex it checks the node's role, runs body against a write
// transaction and publishes. The rule every body keeps is log before
// apply, and write publishes exactly what was logged: the whole
// transaction when at least one record reached the log (so a body that
// fails after logging some records still publishes those), nothing when
// none did. Every logged record is stamped with qid for write tracing. A
// write that published may start a background checkpoint.
func (s *DB) write(qid string, body func(tx *core.WriteTxn, log logFn) error) (err error) {
	logged := 0
	s.transact(func(tx *core.WriteTxn) bool {
		if err = s.writeGuard(); err != nil {
			return false
		}
		m := s.mgr()
		err = body(tx, func(what string, record func(*persist.Manager) error) error {
			if m != nil {
				m.Tag(qid)
				if err := record(m); err != nil {
					s.metrics.persistErrs.Inc()
					return fmt.Errorf("%w: %s not logged, not applied: %v", ErrDurability, what, err)
				}
			}
			logged++
			return nil
		})
		if m != nil && logged > 0 && qid != "" && s.logger().Enabled(context.Background(), slog.LevelDebug) {
			seq, _, _ := m.LastCommit()
			s.logger().Debug("wal commit",
				slog.String("id", qid),
				slog.Int64("commitSeq", seq),
				slog.Int("records", logged))
		}
		return logged > 0
	})
	if logged > 0 {
		s.maybeCheckpointAsync()
	}
	return err
}

// transact runs body on a new write transaction under the commit mutex
// and, when body returns true, publishes the transaction as the next
// catalog version and drops every cached plan: entries are epoch-keyed,
// so stale ones could never be reused, but without the flush they would
// linger in the LRU. Local writes reach it through write, replicated
// ones through ApplyReplicated.
func (s *DB) transact(body func(tx *core.WriteTxn) bool) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	tx := s.core().BeginWrite()
	if body(tx) {
		tx.Commit()
		s.invalidate()
	}
}

// runInsert applies a write plan: the rows are WAL-logged, then inserted
// into the next catalog version, which publishes atomically. A WAL
// failure rejects the insert with nothing applied (safe to retry);
// concurrent readers on pinned snapshots never see the rows until the
// publish.
func (s *DB) runInsert(p plan.Node, qid string) (res *result.Set, err error) {
	ins := p.(plan.Insert)
	err = s.write(qid, func(tx *core.WriteTxn, log logFn) error {
		if err := plan.Check(p, tx.Catalog()); err != nil {
			return err
		}
		width := tx.Catalog().Table(ins.Table).Schema.Width()
		words := storage.Flatten(ins.Rows)
		if err := log("insert", func(m *persist.Manager) error {
			return m.LogInsertWords(ins.Table, width, words)
		}); err != nil {
			return err
		}
		res = tx.AppendRows(ins.Table, words)
		return nil
	})
	return res, err
}

// OptimizeLayouts runs the layout optimizer as one write — the serving
// analogue of core.DB.OptimizeLayouts. Re-laid-out tables are
// materialized copy-on-write and publish in one atomic version swap, so
// queries running on pinned snapshots finish against the old partitions
// untouched. Each decision is WAL-logged before it is materialized, so
// recovery re-applies the exact chosen layouts; if the log rejects one,
// the call returns ErrDurability with the decisions logged before it,
// which are the ones published. A replica refuses: its layouts are the
// primary's, shipped via the WAL.
func (s *DB) OptimizeLayouts() ([]core.LayoutChange, error) {
	var changes []core.LayoutChange
	err := s.write("", func(tx *core.WriteTxn, log logFn) error {
		var err error
		changes, err = tx.OptimizeLayouts(func(ch core.LayoutChange) error {
			return log(fmt.Sprintf("relayout of %q", ch.Table), func(m *persist.Manager) error {
				return m.LogRelayout(ch.Table, ch.New)
			})
		})
		return err
	})
	if len(changes) > 0 {
		s.metrics.relayouts.Inc()
		data := map[string]string{"tables": strconv.Itoa(len(changes))}
		for _, ch := range changes {
			data[ch.Table] = ch.Old.String() + "->" + ch.New.String()
		}
		s.Event(EventRelayout, "layout optimizer changed physical layouts", data)
	}
	return changes, err
}
