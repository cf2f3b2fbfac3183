"""vLLM-style paged KV cache (Kwon et al., 2023) with radix prefix sharing.

Instead of one contiguous KV region per sequence, keys/values live in
fixed-size *blocks* handed out by a free-list allocator; each sequence keeps
a block table mapping logical block index to physical block.  This kills
external fragmentation and lets sequences grow without reallocation — the
property that gives vLLM its memory efficiency, which the framework profile
prices.  The implementation here is a real data structure: tests verify
allocation invariants and that gather-reads reproduce a contiguous cache
bit-exactly.

With ``prefix_share=True`` the cache additionally keeps an SGLang-style
radix tree over prompt token blocks: :meth:`PagedKVCache.prefill_prompt`
walks the tree, adopts already-resident blocks for the longest matched
prefix (full blocks, plus a longest-common-prefix match inside one final
partial block), and only writes KV for the unmatched suffix.  Shared blocks
are reference-counted; the first divergent write into a shared block
triggers a copy-on-write so sharing can never alias another sequence's KV.
Tree-held blocks that no live sequence uses are evicted LRU-first when the
pool runs dry.  Sharing is strictly opt-in: with the default
``prefix_share=False`` every code path below behaves exactly as before.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import KVCorruptionError

__all__ = ["BlockAllocator", "PagedKVCache", "kv_checksum", "prompt_kv"]


def kv_checksum(k: np.ndarray, v: np.ndarray) -> int:
    """CRC32 over a key/value pair's bytes — the integrity stamp swap blobs
    carry so :meth:`PagedKVCache.swap_in` can detect host-side corruption."""
    crc = zlib.crc32(np.ascontiguousarray(k).tobytes())
    return zlib.crc32(np.ascontiguousarray(v).tobytes(), crc)


def prompt_kv(token: int, position: int, n_kv_heads: int,
              head_dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic KV content for one prompt token at one absolute position.

    Two sequences share a prompt prefix exactly when they agree on
    (token, position) pairs, so content generated from those two values
    alone is identical wherever sharing is legal and distinct wherever it
    is not — which is what lets the bit-exactness tests catch any aliasing
    bug in the copy-on-write machinery.
    """
    rng = np.random.default_rng([int(token) + 1, int(position) + 1, 0x5EED])
    kv = rng.standard_normal((2, n_kv_heads, head_dim))
    return kv[0], kv[1]


class BlockAllocator:
    """Free-list allocator over a fixed pool of physical blocks."""

    def __init__(self, n_blocks: int):
        """Create a pool of ``n_blocks`` free physical blocks."""
        if n_blocks <= 0:
            raise ValueError("n_blocks must be positive")
        self.n_blocks = n_blocks
        self._free: List[int] = list(range(n_blocks - 1, -1, -1))
        self._allocated: set[int] = set()

    @property
    def free_blocks(self) -> int:
        """Number of currently unallocated blocks."""
        return len(self._free)

    def allocate(self) -> int:
        """Hand out one free block; ``MemoryError`` when the pool is empty."""
        if not self._free:
            raise MemoryError("paged KV pool exhausted")
        block = self._free.pop()
        self._allocated.add(block)
        return block

    def free(self, block: int) -> None:
        """Return ``block`` to the free list; double-frees are rejected."""
        if block not in self._allocated:
            raise ValueError(f"block {block} is not allocated")
        self._allocated.remove(block)
        self._free.append(block)


class _PrefixNode:
    """One radix-tree node: a physical block frozen at ``tokens``.

    Children are keyed by their full token tuple; a node whose tuple is
    shorter than the block size is a *partial* leaf (a prompt tail) and by
    construction never has children — no inserted prompt can continue past
    a half-filled block.
    """

    __slots__ = ("tokens", "block", "parent", "children", "stamp")

    def __init__(self, tokens: Tuple[int, ...], block: Optional[int],
                 parent: Optional["_PrefixNode"]):
        self.tokens = tokens
        self.block = block
        self.parent = parent
        self.children: Dict[Tuple[int, ...], "_PrefixNode"] = {}
        self.stamp = 0


class PagedKVCache:
    """Paged key/value storage for one layer group.

    Physical storage is ``[n_blocks, block_size, n_kv_heads, head_dim]`` for
    keys and values; sequences append token KV one step at a time and read
    back gathered contiguous views.  With ``prefix_share=True`` prompt
    blocks are deduplicated across sequences through a refcounted radix
    tree with copy-on-write semantics (see the module docstring).
    """

    def __init__(
        self,
        n_blocks: int,
        block_size: int,
        n_kv_heads: int,
        head_dim: int,
        prefix_share: bool = False,
    ):
        """Allocate physical storage for ``n_blocks`` blocks of ``block_size``."""
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.block_size = block_size
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.prefix_share = bool(prefix_share)
        self.allocator = BlockAllocator(n_blocks)
        shape = (n_blocks, block_size, n_kv_heads, head_dim)
        self._k = np.zeros(shape)
        self._v = np.zeros(shape)
        # seq_id -> (block_table, token_count)
        self._tables: Dict[int, Tuple[List[int], int]] = {}
        # seq_id -> (k, v, crc) contiguous copies parked in host memory
        # (swap-out); crc is the checksum stamped at eviction time.
        self._host: Dict[int, Tuple[np.ndarray, np.ndarray, int]] = {}
        # block -> holders (sequences + radix tree); only kept under sharing.
        self._ref: Dict[int, int] = {}
        self._root = _PrefixNode((), None, None)
        self._clock = 0
        self.prefix_prompt_tokens = 0
        self.prefix_matched_tokens = 0
        self.cow_copies = 0
        self.prefix_evictions = 0

    # -- sequence management ---------------------------------------------------
    def add_sequence(self, seq_id: int) -> None:
        """Register a new (empty) sequence; duplicate ids are rejected."""
        if seq_id in self._tables:
            raise ValueError(f"sequence {seq_id} already exists")
        self._tables[seq_id] = ([], 0)

    def free_sequence(self, seq_id: int) -> None:
        """Release every block of ``seq_id`` and forget the sequence.

        Under sharing, blocks still referenced by the radix tree or by
        other sequences merely lose one reference and stay resident.
        """
        table, _ = self._require(seq_id)
        for block in table:
            self._release_block(block)
        del self._tables[seq_id]
        self._host.pop(seq_id, None)

    def _require(self, seq_id: int) -> Tuple[List[int], int]:
        if seq_id not in self._tables:
            raise KeyError(f"unknown sequence {seq_id}")
        return self._tables[seq_id]

    def length(self, seq_id: int) -> int:
        """Token count currently stored for ``seq_id``."""
        return self._require(seq_id)[1]

    def block_table(self, seq_id: int) -> List[int]:
        """Copy of ``seq_id``'s logical-to-physical block table."""
        return list(self._require(seq_id)[0])

    # -- block bookkeeping (sharing-aware) --------------------------------------
    def _allocate_block(self) -> int:
        """One fresh owned block, evicting unused tree leaves if needed."""
        if self.prefix_share:
            while not self.allocator.free_blocks:
                if not self._evict_prefix_leaf():
                    break
        block = self.allocator.allocate()
        if self.prefix_share:
            self._ref[block] = 1
        return block

    def _release_block(self, block: int) -> None:
        """Drop one reference to ``block``, freeing it at zero holders."""
        if not self.prefix_share:
            self.allocator.free(block)
            return
        self._ref[block] -= 1
        if self._ref[block] == 0:
            del self._ref[block]
            self.allocator.free(block)

    # -- KV I/O ---------------------------------------------------------------
    def append(self, seq_id: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append one token's KV (``[n_kv_heads, head_dim]``).

        Under sharing, the first write into a block the sequence does not
        exclusively own triggers a copy-on-write: a fresh block is
        allocated, the shared prefix rows are copied, and the shared block
        loses one reference — so no write can ever reach another holder.
        """
        table, count = self._require(seq_id)
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        expected = (self.n_kv_heads, self.head_dim)
        if k.shape != expected or v.shape != expected:
            raise ValueError(f"expected KV shape {expected}, got {k.shape}/{v.shape}")
        offset = count % self.block_size
        if offset == 0:
            table.append(self._allocate_block())
        elif self.prefix_share and self._ref.get(table[-1], 0) > 1:
            shared = table[-1]
            fresh = self._allocate_block()
            self._k[fresh, :offset] = self._k[shared, :offset]
            self._v[fresh, :offset] = self._v[shared, :offset]
            table[-1] = fresh
            self._release_block(shared)
            self.cow_copies += 1
        block = table[-1]
        self._k[block, offset] = k
        self._v[block, offset] = v
        self._tables[seq_id] = (table, count + 1)

    def append_needs_block(self, seq_id: int) -> bool:
        """Whether the next :meth:`append` will have to allocate a block —
        a fresh one at a block boundary, or a copy-on-write clone when the
        tail block is shared.  The one formula decode-capacity prechecks
        must agree with."""
        table, count = self._require(seq_id)
        offset = count % self.block_size
        if offset == 0:
            return True
        return self.prefix_share and self._ref.get(table[-1], 0) > 1

    def gather(self, seq_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Contiguous ``[tokens, n_kv_heads, head_dim]`` views of a sequence."""
        table, count = self._require(seq_id)
        if count == 0:
            shape = (0, self.n_kv_heads, self.head_dim)
            return np.empty(shape), np.empty(shape)
        ks, vs = [], []
        remaining = count
        for block in table:
            take = min(self.block_size, remaining)
            ks.append(self._k[block, :take])
            vs.append(self._v[block, :take])
            remaining -= take
        return np.concatenate(ks), np.concatenate(vs)

    # -- prefix sharing ---------------------------------------------------------
    def prefill_prompt(self, seq_id: int, prompt: Iterable[int]) -> int:
        """Register ``seq_id`` and populate its prompt KV, adopting shared
        radix-tree blocks for the longest matched prefix.

        Only the unmatched suffix gets fresh KV written (via
        :func:`prompt_kv`); the prompt's blocks are then inserted into the
        tree for future requests.  Returns the number of prompt tokens
        adopted — the prefill work this sequence skipped.  Atomic under
        ``MemoryError``: a failed prefill releases everything it took.
        """
        if not self.prefix_share:
            raise ValueError("prefill_prompt requires prefix_share=True")
        if seq_id in self._tables:
            raise ValueError(f"sequence {seq_id} already exists")
        prompt = [int(t) for t in prompt]
        table: List[int] = []
        self._tables[seq_id] = (table, 0)
        try:
            matched = self._adopt_prefix(table, prompt)
            self._tables[seq_id] = (table, matched)
            for position in range(matched, len(prompt)):
                k, v = prompt_kv(prompt[position], position,
                                 self.n_kv_heads, self.head_dim)
                self.append(seq_id, k, v)
        except MemoryError:
            self.free_sequence(seq_id)
            raise
        self.prefix_prompt_tokens += len(prompt)
        self.prefix_matched_tokens += matched
        self._insert_prompt(seq_id, prompt)
        return matched

    def _adopt_prefix(self, table: List[int], prompt: List[int]) -> int:
        """Walk the radix tree adopting shared blocks; returns tokens matched."""
        node = self._root
        matched = 0
        while matched < len(prompt):
            remaining = prompt[matched:]
            best, best_m = None, 0
            for child in node.children.values():
                m = 0
                for a, b in zip(child.tokens, remaining):
                    if a != b:
                        break
                    m += 1
                if m > best_m:
                    best, best_m = child, m
            if best is None:
                break
            self._ref[best.block] += 1
            table.append(best.block)
            matched += best_m
            self._touch(best)
            if best_m == len(best.tokens) == self.block_size:
                node = best  # full block consumed: keep walking
                continue
            break  # partial match ends the walk; COW fires on first append
        return matched

    def _insert_prompt(self, seq_id: int, prompt: List[int]) -> None:
        """Publish a freshly prefilled prompt's blocks into the radix tree."""
        table, _ = self._tables[seq_id]
        node = self._root
        for start in range(0, len(prompt), self.block_size):
            chunk = tuple(prompt[start:start + self.block_size])
            child = node.children.get(chunk)
            if child is None:
                child = _PrefixNode(chunk, table[start // self.block_size], node)
                node.children[chunk] = child
                self._ref[child.block] += 1
            self._touch(child)
            if len(chunk) < self.block_size:
                break  # partial tail leaf: nothing can follow it
            node = child

    def _touch(self, node: _PrefixNode) -> None:
        """LRU-stamp ``node`` and its ancestors with a fresh clock tick."""
        self._clock += 1
        while node is not None and node.block is not None:
            node.stamp = self._clock
            node = node.parent

    def _evict_prefix_leaf(self) -> bool:
        """Drop the least-recently-used tree-only leaf block; False if none.

        Only leaves whose block has a single holder (the tree itself) are
        candidates, so eviction can never take a block out from under a
        live sequence or orphan an interior node.
        """
        best = None
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(node.children.values())
            elif self._ref.get(node.block, 0) == 1:
                if best is None or node.stamp < best.stamp:
                    best = node
        if best is None:
            return False
        del best.parent.children[best.tokens]
        self._release_block(best.block)
        self.prefix_evictions += 1
        return True

    def evict_prefix_leaves(self, n_blocks: int) -> int:
        """Evict up to ``n_blocks`` unreferenced tree leaves (LRU first).

        The serving engine calls this before preempting live sequences:
        reclaiming cold cache beats evicting hot work.  Returns the number
        of blocks actually freed (0 when every leaf is still shared)."""
        freed = 0
        while freed < n_blocks and self._evict_prefix_leaf():
            freed += 1
        return freed

    def reset_prefix_cache(self) -> int:
        """Release every tree-held reference; returns blocks dereferenced.

        Blocks still used by live sequences stay resident until those
        sequences retire; after the last retire the pool is fully free
        again — the invariant the property tests pin.
        """
        released = 0
        stack = list(self._root.children.values())
        self._root.children.clear()
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            self._release_block(node.block)
            released += 1
        self._clock = 0
        return released

    def prefix_blocks(self) -> int:
        """Number of blocks currently published in the radix tree."""
        count = 0
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            count += 1
        return count

    def prefix_hit_rate(self) -> float:
        """Fraction of prefilled prompt tokens served from shared blocks."""
        if self.prefix_prompt_tokens == 0:
            return float("nan")
        return self.prefix_matched_tokens / self.prefix_prompt_tokens

    # -- preemption: swap to/from a modelled host pool ---------------------------
    def swap_out(self, seq_id: int) -> int:
        """Evict a sequence's KV to host memory, freeing its device blocks.

        The contiguous gather view is parked host-side, stamped with a CRC32
        checksum so :meth:`swap_in` can prove it restores the cache
        bit-exactly; returns the number of tokens moved.
        """
        if seq_id in self._host:
            raise ValueError(f"sequence {seq_id} is already swapped out")
        table, count = self._require(seq_id)
        k, v = self.gather(seq_id)
        self._host[seq_id] = (k, v, kv_checksum(k, v))
        for block in table:
            self._release_block(block)
        del self._tables[seq_id]
        return count

    def host_length(self, seq_id: int) -> int:
        """Tokens parked host-side for ``seq_id`` (``KeyError`` if not swapped)."""
        if seq_id not in self._host:
            raise KeyError(f"sequence {seq_id} is not swapped out")
        return self._host[seq_id][0].shape[0]

    def swap_in_blocks_needed(self, seq_id: int) -> int:
        """Device blocks a :meth:`swap_in` of ``seq_id`` would allocate —
        the one formula capacity prechecks must agree with."""
        count = self.host_length(seq_id)
        return -(-count // self.block_size) if count else 0

    def verify_host(self, seq_id: int) -> None:
        """Check a parked blob against its swap-out checksum.

        Raises :class:`~repro.errors.KVCorruptionError` (leaving the blob in
        place for the caller to :meth:`drop_host`) when the parked bytes no
        longer match the stamp — the detection half of the fault-injection
        story."""
        if seq_id not in self._host:
            raise KeyError(f"sequence {seq_id} is not swapped out")
        k, v, crc = self._host[seq_id]
        if kv_checksum(k, v) != crc:
            raise KVCorruptionError(
                f"swap blob of sequence {seq_id} failed its checksum "
                f"(stamped {crc:#010x}); falling back to recompute is the "
                "only safe resume")

    def swap_in(self, seq_id: int) -> int:
        """Bring a swapped-out sequence back onto device blocks.

        Raises ``MemoryError`` (leaving the host copy intact) if the free
        pool cannot hold the sequence, and
        :class:`~repro.errors.KVCorruptionError` if the blob fails its
        swap-out checksum; returns the number of tokens moved.
        """
        needed = self.swap_in_blocks_needed(seq_id)
        if needed > self.allocator.free_blocks:
            raise MemoryError(
                f"swap-in of sequence {seq_id} needs {needed} blocks, "
                f"only {self.allocator.free_blocks} free"
            )
        self.verify_host(seq_id)
        k, v, _ = self._host.pop(seq_id)
        self.add_sequence(seq_id)
        for t in range(k.shape[0]):
            self.append(seq_id, k[t], v[t])
        return k.shape[0]

    def drop_host(self, seq_id: int) -> int:
        """Discard a parked blob without restoring it (corruption fallback
        or replica teardown); returns the tokens discarded."""
        if seq_id not in self._host:
            raise KeyError(f"sequence {seq_id} is not swapped out")
        k, _, _ = self._host.pop(seq_id)
        return k.shape[0]

    def corrupt_host(self, seq_id: int, rng: np.random.Generator) -> None:
        """Flip one parked value in ``seq_id``'s host blob (fault injection).

        The stamped checksum is left untouched, so the next
        :meth:`swap_in`/:meth:`verify_host` detects the damage."""
        if seq_id not in self._host:
            raise KeyError(f"sequence {seq_id} is not swapped out")
        k, v, crc = self._host[seq_id]
        target = k if (k.size and rng.integers(2) == 0) or not v.size else v
        if not target.size:
            raise ValueError(f"sequence {seq_id} has an empty blob to corrupt")
        flat = target.reshape(-1)
        flat[int(rng.integers(flat.size))] += 1.0 + rng.random()
        self._host[seq_id] = (k, v, crc)

    def is_swapped(self, seq_id: int) -> bool:
        """Whether ``seq_id`` currently lives in the host pool."""
        return seq_id in self._host

    def host_tokens(self) -> int:
        """Tokens currently parked in the modelled host pool."""
        return sum(k.shape[0] for k, _, _ in self._host.values())

    # -- accounting ---------------------------------------------------------------
    def blocks_in_use(self) -> int:
        """Physical blocks currently allocated.

        Without sharing this is the sum of live block-table lengths (every
        block has exactly one holder).  Under sharing, distinct allocated
        blocks are counted instead — a block adopted by five sequences and
        the radix tree is still one block of memory.
        """
        if self.prefix_share:
            return self.allocator.n_blocks - self.allocator.free_blocks
        return sum(len(t) for t, _ in self._tables.values())

    def utilization(self) -> float:
        """Fraction of allocated slots actually holding tokens — paged
        caches keep this near 1, contiguous preallocation does not."""
        blocks = self.blocks_in_use()
        if blocks == 0:
            return float("nan")
        tokens = sum(c for _, c in self._tables.values())
        return tokens / (blocks * self.block_size)
