// Package cache is the content-addressed result store of the serving layer:
// fixed 32-byte (SHA-256) keys map to opaque value bytes through an
// in-memory LRU, optionally backed by an append-only on-disk log.
//
// The persistence design follows the minimally-ordered durable layout of
// MOD-style append-only structures: every Put appends one self-verifying
// record (magic, length, key, value, CRC) with a single write followed by
// fsync, and recovery is a forward scan that stops at the first record that
// fails to verify — a torn tail from a crash mid-append loses at most the
// record being written, never an earlier one. Open truncates the log back
// to the last verified record so subsequent appends extend a clean tail.
// Updates never rewrite in place; a re-Put of an existing key appends a
// fresh record and replay resolves duplicates last-wins, so the log is
// crash-consistent without any ordering beyond "header before fsync".
// Superseded and evicted records are garbage until compaction rewrites the
// log to the live LRU contents — at Open, and whenever the garbage backlog
// exceeds the cache capacity — so disk usage and replay time stay
// proportional to the live set, not to lifetime writes.
package cache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Key is a content address: the SHA-256 of a canonically encoded instance.
type Key = [32]byte

const (
	logName     = "cache.aol"
	recMagic    = 0x4c53414f // "LSAO": linksynth append-only
	recHdrLen   = 8          // magic + value length
	recFixed    = recHdrLen + 32 + 4
	maxValueLen = 1 << 30
)

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Entries   int
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Replayed  int // entries recovered from the log at Open
}

// Cache is a bounded LRU over content-addressed byte values, safe for
// concurrent use. The zero value is not usable; construct with Open.
//
// Two locks keep the read path fast: the LRU's own lock guards memory and
// the counters, logMu guards the file. A Put updates the LRU, which releases
// its lock, then appends under logMu — so cache hits never wait behind an
// fsync.
// Concurrent Puts of the same key could in principle land in the log in
// the opposite order of their memory updates, making a replayed state
// differ from the final in-memory one; the serving layer singleflights
// identical keys, so the race cannot occur there, and either value is a
// valid result for the key in any case (keys are content addresses).
type Cache struct {
	lru      *LRU[[]byte]
	replayed int // set once by Open

	logMu    sync.Mutex
	log      *os.File // nil when memory-only (or closed)
	logErr   error    // sticky: the log was lost mid-run (e.g. compaction reopen failed)
	path     string
	appended int // records currently in the log file
}

// Open creates a cache holding at most maxEntries values (<= 0 selects
// 1024). A non-empty dir enables persistence: records are appended to
// dir/cache.aol and replayed on the next Open, so a restarted server keeps
// serving previously solved instances without re-solving. A corrupt or torn
// log tail is truncated, keeping every record before it.
func Open(dir string, maxEntries int) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	c := &Cache{lru: NewLRU[[]byte](maxEntries)}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: create dir: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cache: open log: %w", err)
	}
	good, err := c.replay(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("cache: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("cache: seek: %w", err)
	}
	c.log = f
	c.path = path
	c.appended = c.replayed
	if c.needsCompaction() {
		if err := c.compact(); err != nil {
			c.log.Close()
			c.log = nil
			return nil, err
		}
	}
	return c, nil
}

// needsCompaction reports whether the garbage backlog (superseded or
// evicted records) has outgrown the cache capacity. Caller holds logMu, or
// has exclusive access during Open.
func (c *Cache) needsCompaction() bool {
	return c.appended-c.lru.Len() > c.lru.maxEntries
}

// compact rewrites the log to exactly the live LRU contents (oldest first,
// so replay recency matches memory), via a temp file renamed into place.
// Caller holds logMu, or has exclusive access during Open.
func (c *Cache) compact() error {
	live := c.lru.oldestFirst()
	tmp := c.path + ".compact"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("cache: compact: %w", err)
	}
	for _, e := range live {
		if _, err := f.Write(encodeRecord(e.key, e.val)); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("cache: compact write: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cache: compact sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cache: compact close: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cache: compact rename: %w", err)
	}
	// Past the rename the old handle points at an unlinked inode; if the
	// compacted file cannot be opened the log is gone for this process.
	// Mark the loss sticky so later Puts report it instead of fsyncing
	// writes into the orphaned file and claiming durability.
	nf, err := os.OpenFile(c.path, os.O_RDWR, 0o644)
	if err != nil {
		c.log.Close()
		c.log = nil
		c.logErr = fmt.Errorf("cache: reopen after compact: %w", err)
		return c.logErr
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		c.log.Close()
		c.log = nil
		c.logErr = fmt.Errorf("cache: seek after compact: %w", err)
		return c.logErr
	}
	c.log.Close()
	c.log = nf
	c.appended = len(live)
	return nil
}

// replay scans the log from the start, loading every verifiable record in
// order (so in-memory recency mirrors append order, and duplicate keys
// resolve last-wins). It returns the offset just past the last good record.
func (c *Cache) replay(f *os.File) (int64, error) {
	var off int64
	rd := io.Reader(f)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("cache: seek: %w", err)
	}
	hdr := make([]byte, recHdrLen)
	for {
		if _, err := io.ReadFull(rd, hdr); err != nil {
			return off, nil // clean EOF or torn header: stop here
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != recMagic {
			return off, nil
		}
		vlen := binary.LittleEndian.Uint32(hdr[4:8])
		if vlen > maxValueLen {
			return off, nil
		}
		body := make([]byte, 32+int(vlen)+4)
		if _, err := io.ReadFull(rd, body); err != nil {
			return off, nil // torn body
		}
		sum := binary.LittleEndian.Uint32(body[32+vlen:])
		if crc32.ChecksumIEEE(body[:32+vlen]) != sum {
			return off, nil // bit rot or torn write inside the record
		}
		var k Key
		copy(k[:], body[:32])
		c.lru.Put(k, body[32:32+vlen])
		c.replayed++
		off += int64(recHdrLen + len(body))
	}
}

// Get returns the value stored under key and marks it most recently used.
// The returned slice is the cache's backing storage: callers must treat it
// as read-only.
func (c *Cache) Get(key Key) ([]byte, bool) { return c.lru.Get(key) }

// Put stores val under key, evicting the least recently used entry past the
// capacity bound, and — when persistence is on — appends a durable record
// before returning. The value bytes are copied. Readers never block on the
// disk write: the in-memory update completes (and releases its lock)
// before the append begins.
func (c *Cache) Put(key Key, val []byte) error {
	c.lru.Put(key, append([]byte(nil), val...))

	c.logMu.Lock()
	defer c.logMu.Unlock()
	if c.logErr != nil {
		return c.logErr
	}
	if c.log == nil {
		return nil
	}
	if _, err := c.log.Write(encodeRecord(key, val)); err != nil {
		return fmt.Errorf("cache: append: %w", err)
	}
	if err := c.log.Sync(); err != nil {
		return fmt.Errorf("cache: sync: %w", err)
	}
	c.appended++
	if c.needsCompaction() {
		return c.compact()
	}
	return nil
}

// encodeRecord renders one self-verifying log record.
func encodeRecord(key Key, val []byte) []byte {
	rec := make([]byte, recFixed+len(val))
	binary.LittleEndian.PutUint32(rec[0:4], recMagic)
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(val)))
	copy(rec[recHdrLen:], key[:])
	copy(rec[recHdrLen+32:], val)
	sum := crc32.ChecksumIEEE(rec[recHdrLen : recHdrLen+32+len(val)])
	binary.LittleEndian.PutUint32(rec[recHdrLen+32+len(val):], sum)
	return rec
}

// Len returns the number of live entries.
func (c *Cache) Len() int { return c.lru.Len() }

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache) Stats() Stats {
	st := c.lru.Stats()
	return Stats{
		Entries:   st.Entries,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Replayed:  c.replayed,
	}
}

// Close releases the log file. The in-memory contents remain usable, but a
// closed persistent cache no longer records new entries durably.
func (c *Cache) Close() error {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}
