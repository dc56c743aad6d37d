//! Bounded-heap streaming top-ℓ.

use std::collections::BinaryHeap;

/// Most slots [`TopK::new`] reserves before seeing an item.
const MAX_RESERVE: usize = 1024;

/// Streaming accumulator of the `k` smallest items seen, `O(log k)` per
/// push. This is what each machine uses to truncate its local input to its
/// ℓ best candidates (Algorithm 2, step 2) in one pass and `O(ℓ)` memory.
#[derive(Debug, Clone)]
pub struct TopK<T: Ord> {
    k: usize,
    // Max-heap: the root is the *worst* of the current best-k, evicted first.
    heap: BinaryHeap<T>,
}

impl<T: Ord + Copy> TopK<T> {
    /// An accumulator keeping the `k` smallest items.
    ///
    /// `k` is a caller's ℓ and may be anything up to `usize::MAX` ("every
    /// point"), so the up-front reservation is capped: past
    /// `MAX_RESERVE` slots the heap grows as items actually arrive.
    pub fn new(k: usize) -> Self {
        TopK { k, heap: BinaryHeap::with_capacity(k.min(MAX_RESERVE)) }
    }

    /// Offer one item.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(item);
        } else if let Some(&worst) = self.heap.peek() {
            if item < worst {
                self.heap.pop();
                self.heap.push(item);
            }
        }
    }

    /// Number of items currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing has been kept.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current threshold: the largest kept item, if the buffer is full.
    pub fn threshold(&self) -> Option<T> {
        if self.heap.len() == self.k {
            self.heap.peek().copied()
        } else {
            None
        }
    }

    /// Finish, returning the kept items in ascending order.
    pub fn into_sorted(self) -> Vec<T> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

/// The `k` smallest items of `iter`, ascending. `O(n log k)` time,
/// `O(k)` memory.
pub fn smallest_k<T: Ord + Copy>(iter: impl IntoIterator<Item = T>, k: usize) -> Vec<T> {
    let mut top = TopK::new(k);
    for item in iter {
        top.push(item);
    }
    top.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_smallest() {
        let got = smallest_k([5u64, 1, 9, 3, 7, 2, 8], 3);
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn k_zero_and_k_big() {
        assert!(smallest_k([1u64, 2, 3], 0).is_empty());
        assert_eq!(smallest_k([3u64, 1, 2], 10), vec![1, 2, 3]);
    }

    #[test]
    fn threshold_only_when_full() {
        let mut t = TopK::new(2);
        assert!(t.is_empty());
        t.push(5u64);
        assert_eq!(t.threshold(), None);
        t.push(3);
        assert_eq!(t.threshold(), Some(5));
        t.push(1);
        assert_eq!(t.threshold(), Some(3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.into_sorted(), vec![1, 3]);
    }

    #[test]
    fn reservation_does_not_scale_with_k() {
        // `k = usize::MAX` means "keep everything"; reserving by it aborts
        // the process inside the allocator.
        for k in [MAX_RESERVE + 1, 1 << 40, usize::MAX] {
            assert!(TopK::<u64>::new(k).heap.capacity() <= 2 * MAX_RESERVE, "k = {k}");
            assert_eq!(smallest_k([3u64, 1, 2], k), vec![1, 2, 3]);
        }
    }

    #[test]
    fn duplicates_kept_up_to_k() {
        let got = smallest_k([2u64, 2, 2, 1, 1], 4);
        assert_eq!(got, vec![1, 1, 2, 2]);
    }

    proptest! {
        #[test]
        fn prop_matches_sort(
            data in proptest::collection::vec(0u64..1000, 0..200),
            k in 0usize..32,
        ) {
            let got = smallest_k(data.iter().copied(), k);
            let mut expected = data;
            expected.sort_unstable();
            expected.truncate(k);
            prop_assert_eq!(got, expected);
        }
    }
}
