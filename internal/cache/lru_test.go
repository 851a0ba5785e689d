package cache

import (
	"fmt"
	"sync"
	"testing"
)

func lruKey(i int) Key {
	var k Key
	copy(k[:], fmt.Sprintf("key-%d", i))
	return k
}

func TestLRUBasics(t *testing.T) {
	l := NewLRU[int](2)
	l.Put(lruKey(1), 10)
	l.Put(lruKey(2), 20)
	if v, ok := l.Get(lruKey(1)); !ok || v != 10 {
		t.Fatalf("Get(1) = %d,%v", v, ok)
	}
	// 1 is now most recent; inserting 3 must evict 2.
	l.Put(lruKey(3), 30)
	if _, ok := l.Get(lruKey(2)); ok {
		t.Fatalf("2 survived past capacity")
	}
	if keys := l.Keys(); len(keys) != 2 || keys[0] != lruKey(3) || keys[1] != lruKey(1) {
		t.Fatalf("Keys() after eviction = %q", keys)
	}
	if old := l.oldestFirst(); len(old) != 2 || old[0].key != lruKey(1) || old[1].val != 30 {
		t.Fatalf("oldestFirst() = %v", old)
	}
	if v, ok := l.Get(lruKey(1)); !ok || v != 10 {
		t.Fatalf("recently-used entry evicted")
	}
	l.Put(lruKey(1), 11) // update in place
	if v, _ := l.Get(lruKey(1)); v != 11 {
		t.Fatalf("update lost")
	}
	if !l.Delete(lruKey(1)) || l.Delete(lruKey(1)) {
		t.Fatalf("Delete semantics broken")
	}
	st := l.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUConcurrent(t *testing.T) {
	l := NewLRU[int](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Put(lruKey(i%40), g*1000+i)
				l.Get(lruKey((i + 7) % 40))
			}
		}(g)
	}
	wg.Wait()
	if l.Len() > 32 {
		t.Fatalf("capacity exceeded: %d", l.Len())
	}
}
