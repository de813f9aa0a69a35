//! [`ById`]: the per-peer table every fabric structure keys by
//! [`PeerId`].
//!
//! [`Fabric::join`](crate::Fabric::join) hands out ids densely from
//! zero and the gossip layer drops any record about an id it never
//! issued, so a table keyed by peer id is a slot vector indexed by
//! `PeerId.0`: a lookup is a bounds check, and a walk in ascending id
//! order — the order the `BTreeMap`s this replaced gave, which digest
//! sync's merge-join, `Fabric::view` and the order nodes take their
//! rounds in depend on — is a scan that skips holes.

use crate::member::PeerId;
use std::iter::Enumerate;
use std::slice;

/// The slot `id` lives in. Callers insert only ids the fabric issued,
/// so the conversion cannot truncate where a table could hold it.
pub(crate) fn slot(id: PeerId) -> usize {
    usize::try_from(id.0).expect("issued peer ids fit in memory")
}

/// A map from [`PeerId`] to `T`: `slots[id.0]` holds `id`'s value, and
/// `len` counts the occupied slots.
#[derive(Clone, Debug)]
pub(crate) struct ById<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for ById<T> {
    fn default() -> Self {
        ById {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> ById<T> {
    /// Number of ids held.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn get(&self, id: PeerId) -> Option<&T> {
        self.slots.get(usize::try_from(id.0).ok()?)?.as_ref()
    }

    pub fn get_mut(&mut self, id: PeerId) -> Option<&mut T> {
        self.slots.get_mut(usize::try_from(id.0).ok()?)?.as_mut()
    }

    pub fn contains(&self, id: PeerId) -> bool {
        self.get(id).is_some()
    }

    /// Stores `value` under `id`, growing the slots to reach it, and
    /// returns what was there.
    pub fn insert(&mut self, id: PeerId, value: T) -> Option<T> {
        let at = slot(id);
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        let old = self.slots[at].replace(value);
        self.len += usize::from(old.is_none());
        old
    }

    /// `id`'s value, first storing `value` there if it has none.
    pub fn get_or_insert(&mut self, id: PeerId, value: T) -> &mut T {
        if !self.contains(id) {
            self.insert(id, value);
        }
        self.get_mut(id).expect("just inserted")
    }

    pub fn remove(&mut self, id: PeerId) -> Option<T> {
        let old = self.slots.get_mut(usize::try_from(id.0).ok()?)?.take();
        self.len -= usize::from(old.is_some());
        old
    }

    /// Empties every slot, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.fill_with(|| None);
        self.len = 0;
    }

    /// Keeps only the values `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for s in &mut self.slots {
            if s.as_ref().is_some_and(|v| !keep(v)) {
                *s = None;
                self.len -= 1;
            }
        }
    }

    /// `(id, value)` pairs in ascending id order. The iterator knows
    /// its exact length, so collecting it allocates once.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            slots: self.slots.iter().enumerate(),
            left: self.len,
        }
    }

    /// The held ids, ascending.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = PeerId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// The values in ascending id order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// How many slots the table spans (held or not).
    #[cfg(test)]
    pub fn span(&self) -> usize {
        self.slots.len()
    }
}

impl<T> std::ops::Index<PeerId> for ById<T> {
    type Output = T;

    fn index(&self, id: PeerId) -> &T {
        self.get(id).expect("the id is held")
    }
}

impl<T> std::ops::IndexMut<PeerId> for ById<T> {
    fn index_mut(&mut self, id: PeerId) -> &mut T {
        self.get_mut(id).expect("the id is held")
    }
}

/// [`ById::iter`]: a scan over the slots that stops at the last held
/// one.
pub(crate) struct Iter<'a, T> {
    slots: Enumerate<slice::Iter<'a, Option<T>>>,
    left: usize,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (PeerId, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.slots
            .find_map(|(at, s)| s.as_ref().map(|v| (PeerId(at as u64), v)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holes_are_skipped_in_id_order() {
        let mut t = ById::default();
        for id in [9u64, 2, 5] {
            assert_eq!(t.insert(PeerId(id), id * 10), None);
        }
        assert_eq!(t.insert(PeerId(5), 51), Some(50));
        assert_eq!(t.len(), 3);
        let it = t.iter();
        assert_eq!(it.len(), 3);
        let held: Vec<_> = it.map(|(id, &v)| (id.0, v)).collect();
        assert_eq!(held, vec![(2, 20), (5, 51), (9, 90)]);
        assert_eq!(t.remove(PeerId(2)), Some(20));
        assert_eq!(t.remove(PeerId(2)), None);
        assert_eq!(t.remove(PeerId(u64::MAX)), None);
        assert_eq!(t.get(PeerId(u64::MAX)), None);
        t.retain(|&v| v > 60);
        assert_eq!(t.ids().collect::<Vec<_>>(), vec![PeerId(9)]);
        assert_eq!(*t.get_or_insert(PeerId(9), 0), 90);
        assert_eq!(*t.get_or_insert(PeerId(0), 7), 7);
        t.clear();
        assert_eq!((t.len(), t.iter().next()), (0, None));
    }
}
