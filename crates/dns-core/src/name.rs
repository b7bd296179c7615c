//! Domain names and label-wise hierarchy operations.
//!
//! # Representation
//!
//! A [`Name`] stores all its labels in **one contiguous buffer** of
//! wire-style, length-prefixed, lowercase bytes (`3www4ucla3edu` for
//! `www.ucla.edu`, without the terminating zero octet), shared behind an
//! `Arc<[u8]>`, plus a start offset and label count. Consequences the
//! resolver hot path relies on:
//!
//! * `clone()` is a reference-count bump — no heap allocation,
//! * [`Name::parent`] and [`Name::ancestors`] return zero-copy suffix
//!   *views* into the same buffer (`cs.ucla.edu` is `www.cs.ucla.edu`
//!   starting four bytes in),
//! * `Eq`/`Hash` are byte-wise over the suffix (the length-prefixed
//!   encoding is unambiguous, and labels are lowercased on construction,
//!   so byte equality is exactly case-insensitive name equality).
//!
//! `Ord` deliberately remains the *label-wise* lexicographic order of the
//! previous `Vec<Label>` representation (most specific label first,
//! labels compared as byte slices): the renewal scheduler orders its
//! `(SimTime, Name)` pairs by it and the experiment transcripts are
//! byte-for-byte reproducible only if that order never changes.

use crate::DnsError;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

/// Maximum octets in a single label (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum octets of a name on the wire, including length bytes and the
/// root's zero octet (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// One label of a domain name, stored lowercase.
///
/// Labels compare case-insensitively per RFC 1035 §2.3.3; we normalise to
/// lowercase at construction so `Eq`/`Hash`/`Ord` are simply byte-wise.
///
/// `Label` is the *construction* unit ([`Name::child`],
/// [`Name::from_labels`]); assembled names store label bytes inline and
/// yield them as plain `&[u8]` slices from [`Name::labels`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(Box<[u8]>);

/// Validates one label byte, returning its lowercase form.
fn label_byte(b: u8) -> Result<u8, DnsError> {
    match b {
        b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' => Ok(b),
        b'A'..=b'Z' => Ok(b.to_ascii_lowercase()),
        other => Err(DnsError::InvalidLabelByte(other)),
    }
}

impl Label {
    /// Creates a label from raw bytes, lowercasing ASCII letters.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::EmptyLabel`] for empty input,
    /// [`DnsError::LabelTooLong`] beyond 63 octets and
    /// [`DnsError::InvalidLabelByte`] for bytes outside `[A-Za-z0-9_-]`.
    pub fn new(bytes: &[u8]) -> Result<Self, DnsError> {
        if bytes.is_empty() {
            return Err(DnsError::EmptyLabel);
        }
        if bytes.len() > MAX_LABEL_LEN {
            return Err(DnsError::LabelTooLong(bytes.len()));
        }
        let mut out = Vec::with_capacity(bytes.len());
        for &b in bytes {
            out.push(label_byte(b)?);
        }
        Ok(Label(out.into_boxed_slice()))
    }

    /// The label's bytes (always lowercase).
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in octets, excluding the wire length byte.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the label is empty. Always `false` for a constructed label;
    /// provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Labels are validated ASCII, so this cannot fail.
        f.write_str(std::str::from_utf8(&self.0).expect("labels are ASCII"))
    }
}

/// The shared empty buffer every root view points at, so [`Name::root`]
/// never allocates after first use.
fn empty_buf() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(&[][..])).clone()
}

/// Incrementally assembles a [`Name`]'s contiguous buffer label by label,
/// so `parse` and the wire decoder never materialise a `Vec<Label>`.
#[derive(Debug, Default)]
pub struct NameBuilder {
    buf: Vec<u8>,
    count: usize,
}

impl NameBuilder {
    /// An empty builder (finishing it immediately yields the root).
    pub fn new() -> Self {
        NameBuilder::default()
    }

    /// Appends one label, validating and lowercasing its bytes.
    ///
    /// # Errors
    ///
    /// Same per-label errors as [`Label::new`].
    pub fn push(&mut self, raw: &[u8]) -> Result<(), DnsError> {
        if raw.is_empty() {
            return Err(DnsError::EmptyLabel);
        }
        if raw.len() > MAX_LABEL_LEN {
            return Err(DnsError::LabelTooLong(raw.len()));
        }
        // Validate before touching the buffer so a failed push leaves the
        // builder unchanged.
        for &b in raw {
            label_byte(b)?;
        }
        self.buf.push(raw.len() as u8);
        self.buf.extend(raw.iter().map(u8::to_ascii_lowercase));
        self.count += 1;
        Ok(())
    }

    /// Appends an already-validated lowercase label without re-checking.
    fn push_validated(&mut self, label: &[u8]) {
        debug_assert!(!label.is_empty() && label.len() <= MAX_LABEL_LEN);
        self.buf.push(label.len() as u8);
        self.buf.extend_from_slice(label);
        self.count += 1;
    }

    /// Finishes the name, enforcing the total wire-length limit.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::NameTooLong`] if the wire form would exceed 255
    /// octets.
    pub fn finish(self) -> Result<Name, DnsError> {
        let wire = 1 + self.buf.len();
        if wire > MAX_NAME_LEN {
            return Err(DnsError::NameTooLong(wire));
        }
        if self.count == 0 {
            return Ok(Name::root());
        }
        let len = self.buf.len() as u16;
        Ok(Name {
            buf: self.buf.into(),
            start: 0,
            len,
            count: self.count as u8,
        })
    }
}

/// A fully qualified domain name: an ordered list of labels, most specific
/// first. The root is the empty list.
///
/// `Name` is the unit the resolver reasons about when it navigates the
/// delegation hierarchy: [`Name::parent`] climbs one step toward the root
/// and [`Name::ancestors`] yields every enclosing zone cut candidate —
/// both as zero-copy views sharing this name's buffer (see the module
/// docs for the representation).
///
/// ```rust
/// # fn main() -> Result<(), dns_core::DnsError> {
/// use dns_core::Name;
/// let www: Name = "www.cs.ucla.edu".parse()?;
/// let zone: Name = "ucla.edu".parse()?;
/// assert!(www.is_subdomain_of(&zone));
/// assert_eq!(www.ancestors().count(), 5); // itself, cs.ucla.edu, ucla.edu, edu, root
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Name {
    /// Length-prefixed lowercase label bytes. For owned names this holds
    /// exactly the name; for views (parents, interned-arena names) it may
    /// be a much larger shared buffer the view points into.
    buf: Arc<[u8]>,
    /// Byte offset of this view's first label within `buf`. `u32` so a
    /// view can point anywhere inside a multi-megabyte interned arena.
    start: u32,
    /// Byte length of the view; `buf[start..start + len]` holds exactly
    /// `count` length-prefixed labels.
    len: u16,
    /// Labels in the view.
    count: u8,
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name {
            buf: empty_buf(),
            start: 0,
            len: 0,
            count: 0,
        }
    }

    /// The length-prefixed label bytes of this view (lowercase, no
    /// terminating zero octet). This is the byte string `Eq`/`Hash` are
    /// defined over, and exactly what the wire encoder emits for an
    /// uncompressed name (minus the trailing zero).
    pub fn as_suffix_bytes(&self) -> &[u8] {
        &self.buf[self.start as usize..self.start as usize + self.len as usize]
    }

    /// A zero-copy view of `count` length-prefixed labels starting at
    /// byte `start` of `buf` — the constructor behind interned name
    /// arenas (`dns-trace`), where one shared buffer holds many names
    /// and each is just an `(offset, count)` pair. No bytes are copied;
    /// the view bumps `buf`'s reference count.
    ///
    /// The bytes are validated: each label must be 1–63 octets of
    /// already-lowercase `[a-z0-9_-]`, and the whole view must satisfy
    /// the wire-length limit.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::NameParse`] when the view runs past the end of
    /// `buf`, [`DnsError::NameTooLong`] past the wire limit, and the
    /// usual per-label errors for malformed or non-lowercase bytes.
    pub fn view(buf: &Arc<[u8]>, start: usize, count: usize) -> Result<Name, DnsError> {
        if count == 0 {
            return Ok(Name::root());
        }
        if count > MAX_NAME_LEN / 2 {
            // More labels than can fit any legal name.
            return Err(DnsError::NameTooLong(count * 2 + 1));
        }
        let mut at = start;
        for _ in 0..count {
            let oob = || DnsError::NameParse(format!("arena view at {start} out of bounds"));
            let label_len = *buf.get(at).ok_or_else(oob)? as usize;
            if label_len == 0 {
                return Err(DnsError::EmptyLabel);
            }
            if label_len > MAX_LABEL_LEN {
                return Err(DnsError::LabelTooLong(label_len));
            }
            let label = buf.get(at + 1..at + 1 + label_len).ok_or_else(oob)?;
            for &b in label {
                // Arena bytes must already be canonical (lowercase):
                // views skip normalisation, so accepting uppercase here
                // would break byte-wise `Eq`/`Hash`.
                if label_byte(b)? != b {
                    return Err(DnsError::InvalidLabelByte(b));
                }
            }
            at += 1 + label_len;
        }
        let len = at - start;
        if 1 + len > MAX_NAME_LEN {
            return Err(DnsError::NameTooLong(1 + len));
        }
        if start > u32::MAX as usize {
            return Err(DnsError::NameParse(format!(
                "arena offset {start} too large"
            )));
        }
        Ok(Name {
            buf: Arc::clone(buf),
            start: start as u32,
            len: len as u16,
            count: count as u8,
        })
    }

    /// Builds a name from labels ordered most specific first.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::NameTooLong`] if the wire form would exceed 255
    /// octets.
    pub fn from_labels(labels: Vec<Label>) -> Result<Self, DnsError> {
        let mut b = NameBuilder::new();
        for label in &labels {
            b.push_validated(label.as_bytes());
        }
        b.finish()
    }

    /// Parses dotted text (`"www.ucla.edu"` or `"www.ucla.edu."`; `"."` and
    /// `""` are the root).
    ///
    /// # Errors
    ///
    /// Returns a [`DnsError`] if a label is invalid or the name is too long.
    pub fn parse(s: &str) -> Result<Self, DnsError> {
        let trimmed = s.strip_suffix('.').unwrap_or(s);
        if trimmed.is_empty() {
            return Ok(Name::root());
        }
        let mut b = NameBuilder::new();
        for part in trimmed.split('.') {
            b.push(part.as_bytes()).map_err(|e| match e {
                DnsError::EmptyLabel => DnsError::NameParse(s.to_string()),
                other => other,
            })?;
        }
        b.finish()
    }

    /// Whether this is the root name.
    pub fn is_root(&self) -> bool {
        self.count == 0
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.count as usize
    }

    /// Iterator over the labels as byte slices, most specific first.
    pub fn labels(&self) -> Labels<'_> {
        Labels {
            rest: self.as_suffix_bytes(),
            remaining: self.count as usize,
        }
    }

    /// Octets this name occupies on the wire (length bytes + label bytes +
    /// terminating zero), ignoring compression.
    pub fn wire_len(&self) -> usize {
        1 + self.as_suffix_bytes().len()
    }

    /// The name with the leftmost label removed; `None` for the root.
    ///
    /// `www.ucla.edu` → `ucla.edu` → `edu` → `.` → `None`. The parent is a
    /// view into the same buffer — no bytes are copied.
    pub fn parent(&self) -> Option<Name> {
        if self.count == 0 {
            return None;
        }
        let skip = 1 + u16::from(self.buf[self.start as usize]);
        Some(Name {
            buf: Arc::clone(&self.buf),
            start: self.start + u32::from(skip),
            len: self.len - skip,
            count: self.count - 1,
        })
    }

    /// Iterator over this name and every ancestor, ending at the root.
    /// Each item shares this name's buffer.
    pub fn ancestors(&self) -> Ancestors {
        Ancestors {
            next: Some(self.clone()),
        }
    }

    /// The [`Name::as_suffix_bytes`] of this name and of every ancestor,
    /// most specific first, ending with the root's empty slice: the
    /// borrowed twin of [`Name::ancestors`], for probing maps whose keys
    /// hash and compare by suffix bytes without a `Name` per step.
    pub fn ancestor_bytes(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut next = Some(self.as_suffix_bytes());
        std::iter::from_fn(move || {
            let current = next?;
            next = current
                .split_first()
                .map(|(&len, rest)| &rest[len as usize..]);
            Some(current)
        })
    }

    /// Whether `self` equals `other` or sits below it in the tree.
    ///
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        if other.count > self.count {
            return false;
        }
        // Walk label boundaries rather than comparing raw byte suffixes:
        // a digit byte inside a label is indistinguishable from a length
        // prefix, so `aucla.edu` must not match a trailing-bytes probe
        // for `ucla.edu`.
        let mut rest = self.as_suffix_bytes();
        for _ in 0..self.count - other.count {
            rest = &rest[1 + rest[0] as usize..];
        }
        rest == other.as_suffix_bytes()
    }

    /// Whether `self` is strictly below `other` (subdomain but not equal).
    pub fn is_proper_subdomain_of(&self, other: &Name) -> bool {
        self.count > other.count && self.is_subdomain_of(other)
    }

    /// Creates the child name `label.self`.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::NameTooLong`] if the result would exceed the wire
    /// limit.
    pub fn child(&self, label: Label) -> Result<Name, DnsError> {
        let suffix = self.as_suffix_bytes();
        let mut b = NameBuilder {
            buf: Vec::with_capacity(1 + label.len() + suffix.len()),
            count: 0,
        };
        b.push_validated(label.as_bytes());
        b.buf.extend_from_slice(suffix);
        b.count += self.count as usize;
        b.finish()
    }

    /// Concatenates `self` (as the more specific part) onto `suffix`.
    ///
    /// `Name::parse("www")?.append(&zone)` builds `www.<zone>`.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::NameTooLong`] if the result would exceed the wire
    /// limit.
    pub fn append(&self, suffix: &Name) -> Result<Name, DnsError> {
        let (head, tail) = (self.as_suffix_bytes(), suffix.as_suffix_bytes());
        let mut buf = Vec::with_capacity(head.len() + tail.len());
        buf.extend_from_slice(head);
        buf.extend_from_slice(tail);
        NameBuilder {
            buf,
            count: self.count as usize + suffix.count as usize,
        }
        .finish()
    }

    /// The label `depth` steps above the most specific one (0 = leftmost).
    fn label_at(&self, depth: usize) -> &[u8] {
        let mut it = self.labels();
        it.nth(depth).expect("depth < label_count")
    }

    /// The number of labels shared with `other`, counted from the root.
    ///
    /// `www.ucla.edu` and `cs.ucla.edu` share 2 (`ucla`, `edu`).
    pub fn common_suffix_len(&self, other: &Name) -> usize {
        let max = self.label_count().min(other.label_count());
        let mut shared = 0;
        for i in 1..=max {
            if self.label_at(self.label_count() - i) == other.label_at(other.label_count() - i) {
                shared = i;
            } else {
                break;
            }
        }
        shared
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::root()
    }
}

/// Byte-wise over the unambiguous length-prefixed lowercase encoding, so
/// equality is exactly case-insensitive label-sequence equality.
impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_suffix_bytes() == other.as_suffix_bytes()
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must stay identical to the `RrKeyView` hash in `rr.rs`, which
        // enables borrowed-key cache lookups without building an `RrKey`.
        self.as_suffix_bytes().hash(state);
    }
}

/// Label-wise lexicographic order, most specific label first — the same
/// total order the former `Vec<Label>` representation derived. The
/// renewal scheduler's `(SimTime, Name)` pop order (and thus RNG
/// consumption and every experiment transcript) depends on it, so it
/// must never silently change to plain suffix-byte order.
impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_suffix_bytes(other.as_suffix_bytes())
    }
}

impl Name {
    /// This name's [`Ord`] position against the name whose
    /// [`Name::as_suffix_bytes`] are `other`, for searching sorted names
    /// with a borrowed ancestor (see [`Name::ancestor_bytes`]).
    pub fn cmp_suffix_bytes(&self, other: &[u8]) -> Ordering {
        label_order(self.as_suffix_bytes(), other)
    }
}

/// [`Name`]'s order over two names' suffix bytes: label by label, most
/// specific first, each label compared as a byte slice, and a name that
/// runs out of labels first sorting first.
fn label_order(mut a: &[u8], mut b: &[u8]) -> Ordering {
    loop {
        let (Some((&la, rest_a)), Some((&lb, rest_b))) = (a.split_first(), b.split_first()) else {
            return a.len().cmp(&b.len());
        };
        let (label_a, rest_a) = rest_a.split_at(la as usize);
        let (label_b, rest_b) = rest_b.split_at(lb as usize);
        match label_a.cmp(label_b) {
            Ordering::Equal => (a, b) = (rest_a, rest_b),
            unequal => return unequal,
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

/// Iterator returned by [`Name::labels`]: each label's bytes, most
/// specific first, read straight out of the shared buffer.
#[derive(Debug, Clone)]
pub struct Labels<'a> {
    rest: &'a [u8],
    remaining: usize,
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, tail) = self.rest.split_first()?;
        let (label, rest) = tail.split_at(len as usize);
        self.rest = rest;
        self.remaining -= 1;
        Some(label)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Labels<'_> {}

/// Iterator returned by [`Name::ancestors`]: the name itself, then each
/// parent, ending with the root. Every item is a zero-copy view sharing
/// the original buffer.
#[derive(Debug, Clone)]
pub struct Ancestors {
    next: Option<Name>,
}

impl Iterator for Ancestors {
    type Item = Name;

    fn next(&mut self) -> Option<Name> {
        let current = self.next.take()?;
        self.next = current.parent();
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = match &self.next {
            Some(n) => n.label_count() + 1,
            None => 0,
        };
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Ancestors {}

impl fmt::Display for Name {
    /// Canonical presentation: absolute form with trailing dot; the root is
    /// a single dot.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for label in self.labels() {
            // Labels are validated ASCII, so this cannot fail.
            f.write_str(std::str::from_utf8(label).expect("labels are ASCII"))?;
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl FromStr for Name {
    type Err = DnsError;
    fn from_str(s: &str) -> Result<Self, DnsError> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        Name::parse(s).unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        assert_eq!(n("www.ucla.edu").to_string(), "www.ucla.edu.");
        assert_eq!(n("www.ucla.edu.").to_string(), "www.ucla.edu.");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(n("").to_string(), ".");
    }

    #[test]
    fn case_is_normalised() {
        assert_eq!(n("WWW.UCLA.Edu"), n("www.ucla.edu"));
    }

    #[test]
    fn invalid_labels_rejected() {
        assert!(Name::parse("exa mple.com").is_err());
        assert!(Name::parse("a..b").is_err());
        let long = "a".repeat(64);
        assert_eq!(Name::parse(&long).unwrap_err(), DnsError::LabelTooLong(64));
    }

    #[test]
    fn name_length_limit_enforced() {
        // 5 labels of 63 octets = 5*64+1 = 321 wire octets > 255.
        let label = "a".repeat(63);
        let long = [label.as_str(); 5].join(".");
        assert!(matches!(
            Name::parse(&long).unwrap_err(),
            DnsError::NameTooLong(_)
        ));
        // 3 labels of 63 = 193+1 wire octets: fine.
        let ok = [label.as_str(); 3].join(".");
        assert!(Name::parse(&ok).is_ok());
    }

    #[test]
    fn parent_chain_reaches_root() {
        let name = n("www.cs.ucla.edu");
        let mut chain = Vec::new();
        let mut cur = Some(name);
        while let Some(x) = cur {
            chain.push(x.to_string());
            cur = chain.last().map(|s| n(s)).and_then(|x| x.parent());
        }
        assert_eq!(
            chain,
            vec!["www.cs.ucla.edu.", "cs.ucla.edu.", "ucla.edu.", "edu.", "."]
        );
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn parent_and_ancestors_share_the_buffer() {
        let name = n("www.cs.ucla.edu");
        let parent = name.parent().unwrap();
        assert!(Arc::ptr_eq(&name.buf, &parent.buf));
        for ancestor in name.ancestors() {
            assert!(Arc::ptr_eq(&name.buf, &ancestor.buf));
        }
        // Views from different buffers still compare equal.
        assert_eq!(parent, n("cs.ucla.edu"));
    }

    #[test]
    fn ancestors_iterate_most_specific_first() {
        let got: Vec<String> = n("a.b.c").ancestors().map(|x| x.to_string()).collect();
        assert_eq!(got, vec!["a.b.c.", "b.c.", "c.", "."]);
        let root_only: Vec<Name> = Name::root().ancestors().collect();
        assert_eq!(root_only, vec![Name::root()]);
    }

    #[test]
    fn ancestor_bytes_follow_ancestors() {
        for name in [n("www.cs.ucla.edu"), n("a"), Name::root()] {
            let bytes: Vec<&[u8]> = name.ancestor_bytes().collect();
            let owned: Vec<Name> = name.ancestors().collect();
            let expect: Vec<&[u8]> = owned.iter().map(Name::as_suffix_bytes).collect();
            assert_eq!(bytes, expect, "{name}");
        }
    }

    #[test]
    fn ancestors_size_hint_is_exact() {
        let name = n("a.b.c");
        let it = name.ancestors();
        assert_eq!(it.len(), 4);
        assert_eq!(it.count(), 4);
    }

    #[test]
    fn labels_iterate_with_exact_size() {
        let name = n("www.ucla.edu");
        let it = name.labels();
        assert_eq!(it.len(), 3);
        let got: Vec<&[u8]> = it.collect();
        assert_eq!(got, vec![b"www".as_slice(), b"ucla", b"edu"]);
        assert_eq!(Name::root().labels().len(), 0);
    }

    #[test]
    fn subdomain_relationships() {
        assert!(n("www.ucla.edu").is_subdomain_of(&n("ucla.edu")));
        assert!(n("www.ucla.edu").is_subdomain_of(&n("edu")));
        assert!(n("www.ucla.edu").is_subdomain_of(&Name::root()));
        assert!(n("ucla.edu").is_subdomain_of(&n("ucla.edu")));
        assert!(!n("ucla.edu").is_proper_subdomain_of(&n("ucla.edu")));
        assert!(n("www.ucla.edu").is_proper_subdomain_of(&n("ucla.edu")));
        assert!(!n("ucla.edu").is_subdomain_of(&n("www.ucla.edu")));
        // Same length, different labels.
        assert!(!n("ucla.edu").is_subdomain_of(&n("ucla.com")));
        // Suffix must fall on a label boundary.
        assert!(!n("aucla.edu").is_subdomain_of(&n("ucla.edu")));
        // Digit-led labels whose bytes mimic a length prefix must not
        // confuse the boundary walk (b'1' = 49, a plausible prefix).
        assert!(!n("x1.12345.com").is_subdomain_of(&n("2345.com")));
        assert!(n("a.12345.com").is_subdomain_of(&n("12345.com")));
    }

    #[test]
    fn child_and_append() {
        let zone = n("ucla.edu");
        let www = zone.child(Label::new(b"www").unwrap()).unwrap();
        assert_eq!(www, n("www.ucla.edu"));
        let joined = n("a.b").append(&n("c.d")).unwrap();
        assert_eq!(joined, n("a.b.c.d"));
    }

    #[test]
    fn common_suffix() {
        assert_eq!(n("www.ucla.edu").common_suffix_len(&n("cs.ucla.edu")), 2);
        assert_eq!(n("www.ucla.edu").common_suffix_len(&n("www.ucla.com")), 0);
        assert_eq!(n("a.b").common_suffix_len(&Name::root()), 0);
    }

    #[test]
    fn ordering_is_total_and_consistent() {
        let mut names = [n("b.com"), n("a.com"), Name::root()];
        names.sort();
        // We only require a deterministic total order for use in BTreeMaps.
        assert_eq!(names.len(), 3);
        assert!(names.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ordering_matches_label_list_model() {
        // The order the scheduler depends on: compare label-by-label from
        // the most specific end, like the old Vec<Label> derive did.
        let names = [
            Name::root(),
            n("com"),
            n("a.com"),
            n("b.com"),
            n("a.b.com"),
            n("aa.com"),
            n("a.edu"),
            n("edu"),
        ];
        for a in &names {
            for b in &names {
                let model_a: Vec<&[u8]> = a.labels().collect();
                let model_b: Vec<&[u8]> = b.labels().collect();
                assert_eq!(a.cmp(b), model_a.cmp(&model_b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn arena_views_share_bytes_and_compare_equal() {
        // One arena holding two names back to back:
        // 3www4ucla3edu | 1a3com
        let arena: Arc<[u8]> = Arc::from(&b"\x03www\x04ucla\x03edu\x01a\x03com"[..]);
        let www = Name::view(&arena, 0, 3).unwrap();
        let a_com = Name::view(&arena, 13, 2).unwrap();
        assert_eq!(www, n("www.ucla.edu"));
        assert_eq!(a_com, n("a.com"));
        assert!(Arc::ptr_eq(&www.buf, &arena));
        // Mid-arena parents stop at the view's end, not the buffer's.
        assert_eq!(www.parent().unwrap(), n("ucla.edu"));
        assert_eq!(www.parent().unwrap().as_suffix_bytes(), b"\x04ucla\x03edu");
        // Interior offsets give suffix views for free.
        assert_eq!(Name::view(&arena, 4, 2).unwrap(), n("ucla.edu"));
        // Zero labels is the root.
        assert_eq!(Name::view(&arena, 0, 0).unwrap(), Name::root());
    }

    #[test]
    fn arena_views_hash_like_owned_names() {
        use std::collections::hash_map::DefaultHasher;
        fn h(name: &Name) -> u64 {
            let mut s = DefaultHasher::new();
            name.hash(&mut s);
            s.finish()
        }
        let arena: Arc<[u8]> = Arc::from(&b"\x02xx\x03www\x04ucla\x03edu"[..]);
        let view = Name::view(&arena, 3, 3).unwrap();
        assert_eq!(h(&view), h(&n("www.ucla.edu")));
    }

    #[test]
    fn malformed_arena_views_rejected() {
        let arena: Arc<[u8]> = Arc::from(&b"\x03www\x04ucla\x03edu"[..]);
        // Runs past the end of the buffer.
        assert!(Name::view(&arena, 0, 4).is_err());
        assert!(Name::view(&arena, 10, 2).is_err());
        // Offset lands mid-label: b'w' = 119 reads far out of bounds.
        assert!(Name::view(&arena, 1, 1).is_err());
        // Zero-length label.
        let zeros: Arc<[u8]> = Arc::from(&b"\x00\x01a"[..]);
        assert!(Name::view(&zeros, 0, 2).is_err());
        // Uppercase bytes are not canonical arena content.
        let upper: Arc<[u8]> = Arc::from(&b"\x03WWW"[..]);
        assert!(Name::view(&upper, 0, 1).is_err());
        // Too many labels for any legal name.
        assert!(Name::view(&arena, 0, 200).is_err());
    }

    #[test]
    fn views_hash_like_owned_names() {
        use std::collections::hash_map::DefaultHasher;
        fn h(name: &Name) -> u64 {
            let mut s = DefaultHasher::new();
            name.hash(&mut s);
            s.finish()
        }
        let deep = n("www.cs.ucla.edu");
        let view = deep.parent().unwrap().parent().unwrap();
        assert_eq!(view, n("ucla.edu"));
        assert_eq!(h(&view), h(&n("ucla.edu")));
    }
}
