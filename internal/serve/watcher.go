// The ModelDir watcher: a dependency-free polling loop that hot-reloads
// artifacts. Every ReloadInterval it lists *.iotml files in the directory
// and stats each one; a file whose mtime or size changed since the last
// poll is loaded, fingerprinted (model.Artifact.Fingerprint — a CRC over
// the serialized form), and — only if the content actually differs from
// the serving copy — swapped in through Registry.Load's atomic hot-swap
// path. Stat-first keeps the steady-state poll at one readdir plus one
// stat per model; the fingerprint compare keeps a touch-without-change
// (cp --preserve, rsync) from triggering a spurious swap. Files that
// appear are registered; files that vanish are retired (their pipelines
// drain). A file that fails to load — mid-write, truncated, wrong format
// version — or whose warm-up probe (its first training row) scores
// non-finite is skipped, counted in reload_errors, and retried on the next
// poll while the previous model generation keeps serving.

package serve

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/model"
	"repro/internal/retry"
)

// watchScanRetries is how many quick jittered retries a failed poll gets
// before the loop falls back to its steady ReloadInterval cadence.
const watchScanRetries = 2

// fileStamp is the cheap change detector: a reload is considered only when
// either field moves.
type fileStamp struct {
	mtime time.Time
	size  int64
}

// scanModelDir is one watcher pass: reconcile the registry against the
// directory. It is called synchronously from New (so serving starts with
// the directory's models loaded — a failed initial scan fails New) and
// then from the watch loop (where per-file errors are recorded and
// retried instead of fatal).
func (s *Server) scanModelDir() error {
	files, err := listArtifacts(s.cfg.ModelDir)
	if err != nil {
		return err
	}
	var errs []error
	seen := make(map[string]bool, len(files))
	for _, f := range files {
		seen[f] = true
		if err := s.reconcileFile(f); err != nil {
			// One unloadable file must not block the rest of the fleet from
			// refreshing; collect and keep reconciling.
			errs = append(errs, err)
		}
	}
	// Vanished files retire their models.
	for f := range s.stamps {
		if !seen[f] {
			s.reg.Remove(modelIDForFile(f))
			delete(s.stamps, f)
		}
	}
	return errors.Join(errs...)
}

// reconcileFile brings one artifact file's registration up to date.
func (s *Server) reconcileFile(f string) error {
	fi, err := os.Stat(f)
	if err != nil {
		return fmt.Errorf("serve: stat %s: %w", f, err)
	}
	stamp := fileStamp{mtime: fi.ModTime(), size: fi.Size()}
	if prev, ok := s.stamps[f]; ok && prev == stamp {
		return nil // unchanged since the last poll
	}
	art, err := model.LoadFile(f)
	if err != nil {
		return fmt.Errorf("serve: loading %s: %w", f, err)
	}
	id := modelIDForFile(f)
	fp, err := art.Fingerprint()
	if err != nil {
		return fmt.Errorf("serve: fingerprinting %s: %w", f, err)
	}
	if cur, ok := s.reg.Fingerprint(id); ok && cur == fp {
		// Rewritten but bit-identical (or the initial scan found an
		// already-registered copy): no swap, just remember the stamp.
		s.stamps[f] = stamp
		return nil
	}
	if err := probeArtifact(art); err != nil {
		return fmt.Errorf("serve: refusing %s: %w", f, err)
	}
	if err := s.reg.load(id, art, f); err != nil {
		return fmt.Errorf("serve: swapping %s: %w", f, err)
	}
	s.stamps[f] = stamp
	return nil
}

// probeArtifact scores the artifact's first training row before it may
// replace a serving generation. A valid artifact can still overflow to
// non-finite scores (a high-degree polynomial spec, say); such a
// generation would answer every predict with an error, so the watcher
// refuses it — model.ErrNonFiniteScore — and the old generation keeps
// serving.
func probeArtifact(art *model.Artifact) error {
	p, err := model.NewPredictor(art)
	if err != nil {
		return err
	}
	_, err = p.Scores([][]float64{art.TrainX.Row(0)})
	return err
}

// watch is the polling goroutine started by New when WithModelDir is set.
// stop and done are passed in (rather than read from the Server fields)
// because stopWatcher nils the fields under s.mu while this goroutine runs.
func (s *Server) watch(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(s.cfg.ReloadInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if err := s.scanModelDir(); err != nil {
				// Keep serving the previous generation; surface the failure
				// through /healthz and iotml_reload_errors_total, then make
				// a few quick jittered retries — a transient read error
				// (artifact mid-write, filesystem blip) usually heals in
				// milliseconds, not a full ReloadInterval.
				s.recordReloadError(err)
				s.retryScan(stop)
			}
		}
	}
}

// retryScan re-runs a failed directory scan up to watchScanRetries times
// on a jittered backoff well inside the poll interval, counting each
// attempt in reload_retries. It returns early on success or stop; on
// exhaustion the steady ticker cadence resumes.
func (s *Server) retryScan(stop chan struct{}) {
	pol := retry.Policy{Base: s.cfg.ReloadInterval / 8, Max: s.cfg.ReloadInterval}
	for attempt := 0; attempt < watchScanRetries; attempt++ {
		t := time.NewTimer(pol.Delay(attempt, nil))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		s.reloadRetries.Add(1)
		err := s.scanModelDir()
		if err == nil {
			return
		}
		s.recordReloadError(err)
	}
}

// stopWatcher ends the polling goroutine (idempotent).
func (s *Server) stopWatcher() {
	s.mu.Lock()
	stop, done := s.watchStop, s.watchDone
	s.watchStop = nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
