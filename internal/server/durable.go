package server

import (
	"fmt"

	"apcache/internal/engine"
	"apcache/internal/wal"
)

// Open builds a server like New and, when cfg.WALDir is set, attaches its
// write-ahead journal: state recorded by a previous process under that
// directory — every hosted value and the last learned width per key — is
// recovered first, with a torn or corrupted log tail truncated rather than
// rejected, and then folded into fresh per-shard log files before the server
// accepts traffic (the engine's compaction on open). Subscriptions are not
// journaled: they name ephemeral connection IDs, and reconnecting clients
// replay their own — landing on controllers seeded at the recovered widths.
//
// Like New, Open panics on invalid configuration; errors are reserved for
// the journal (unreadable directory, failed recovery rewrite).
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if cfg.WALDir == "" {
		return s, nil
	}
	fsys := cfg.WALFS
	if fsys == nil {
		fsys = wal.OSFS
	}
	if err := fsys.MkdirAll(cfg.WALDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: wal: %w", err)
	}
	keys, maxLSN, err := engine.Scan(fsys, cfg.WALDir, 0)
	if err != nil {
		return nil, fmt.Errorf("server: wal: %w", err)
	}
	s.eng.Restore(keys)
	for _, sh := range s.eng.Shards() {
		sh.Src.ForEach(func(k int, v float64) { sh.Host.Store(k, v) })
		s.syncShard(sh)
	}
	err = s.eng.Attach(engine.Journal{
		Log: wal.Options{
			Dir:      cfg.WALDir,
			Policy:   cfg.WALFsync,
			Interval: cfg.WALFsyncInterval,
			FS:       fsys,
			StartLSN: maxLSN,
		},
		Checkpoint: s.compactWAL,
		Broken: func(err error) {
			s.logf("server: wal: durability broken (serving continues from memory): %v", err)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("server: wal: %w", err)
	}
	return s, nil
}

// compactWAL is the server's checkpoint: with every shard lock held
// (stop-the-world, no Stage can be in flight) each shard file is rewritten to
// its current values and learned widths via temp file, fsync, and atomic
// rename. The rewritten records carry LSNs above everything already on disk,
// so a crash between shards leaves a mix of old and new files that replay
// merges per key with the rewritten state winning.
func (s *Server) compactWAL() error {
	s.eng.LockAll()
	defer s.eng.UnlockAll()
	return s.eng.Log().Rewrite(0, s.eng.ShardState)
}

// LearnedWidth reports the last width journaled for key — the precision a
// subscription created now would start at on a durable server. ok is false
// for keys with no journaled width (or on a non-durable server).
func (s *Server) LearnedWidth(key int) (float64, bool) {
	sh := s.eng.For(key)
	sh.Mu.Lock()
	defer sh.Mu.Unlock()
	return sh.LearnedWidth(key)
}
