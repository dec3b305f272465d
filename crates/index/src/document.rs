//! The embedded document: a **base chain** written once at build time
//! plus an append-only **fragment log**, so an append writes only its
//! own fragment, whatever the size of the document.
//!
//! ```text
//! base chain := encode_tree(document)            (XKDOC1; legacy: XML text)
//! log chain  := entry*
//! entry      := payload_len u32 | crc32(payload) u32 | payload
//! payload    := depth u32 | depth × component u32  (the parent's Dewey)
//!               encode_tree(fragment)
//! ```
//!
//! Both chains are byte streams cut into half-page records by
//! [`write_chunked`], so a fragment of any size fits. Loading decodes the
//! base and replays every entry in order through [`graft`], after the
//! same [`tail_parent`] check the engine ran when it accepted the append:
//! the fragment becomes the parent's last child again, so replay
//! reproduces every Dewey ordinal exactly. Any malformed entry — cut
//! short, failing its CRC, or naming a parent that does not resolve to an
//! element on the rightmost path — is [`IndexError::Corrupt`].

use crate::diskindex::{IndexError, Result};
use xk_storage::{append_records, ListHandle, ListReader, StorageEnv};
use xk_xmltree::{Dewey, NodeContent, NodeId, XmlTree};

/// Where the embedded document lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocumentChains {
    /// The document as built, written once by the build.
    pub base: ListHandle,
    /// The fragment log; `None` until the first append.
    pub log: Option<ListHandle>,
}

/// Bytes of an entry's length and CRC fields.
const ENTRY_HEADER: usize = 8;

/// The one writer of document chains: cuts `bytes` into half-page
/// records and appends them to `chain`, or starts a new chain.
pub(crate) fn write_chunked(
    env: &StorageEnv,
    chain: Option<ListHandle>,
    bytes: &[u8],
) -> Result<ListHandle> {
    Ok(append_records(
        env,
        chain,
        bytes.chunks(env.page_size() / 2),
    )?)
}

/// Concatenates every record of a chain.
fn read_chain(env: &StorageEnv, handle: &ListHandle) -> Result<Vec<u8>> {
    let mut reader = ListReader::new(handle);
    let mut bytes = Vec::new();
    while let Some(chunk) = reader.next_record(env)? {
        bytes.extend_from_slice(&chunk);
    }
    Ok(bytes)
}

/// Loads the document: the base, then every logged fragment in order.
pub(crate) fn load(env: &StorageEnv, chains: &DocumentChains) -> Result<XmlTree> {
    let mut tree = decode_base(read_chain(env, &chains.base)?)?;
    if let Some(log) = &chains.log {
        replay_log(&mut tree, &read_chain(env, log)?)?;
    }
    Ok(tree)
}

/// Decodes the base chain: the structural encoding (lossless — XML text
/// merges adjacent text siblings, which would shift Dewey ordinals under
/// appends), or XML text in documents stored by earlier versions.
fn decode_base(bytes: Vec<u8>) -> Result<XmlTree> {
    if bytes.starts_with(&xk_xmltree::TREE_MAGIC[..]) {
        return xk_xmltree::decode_tree(&bytes)
            .map_err(|e| IndexError::Corrupt(format!("stored document: {e}")));
    }
    let text = String::from_utf8(bytes)
        .map_err(|_| IndexError::Corrupt("stored document is not UTF-8".into()))?;
    xk_xmltree::parse(&text)
        .map_err(|e| IndexError::Corrupt(format!("stored document does not parse: {e}")))
}

/// One log entry for appending `fragment` under `parent` (a node of the
/// document, so its depth fits the `u32` field).
pub(crate) fn encode_entry(parent: &Dewey, fragment: &XmlTree) -> Result<Vec<u8>> {
    let components = parent.components();
    let mut payload = Vec::with_capacity(4 + 4 * components.len());
    payload.extend_from_slice(&(components.len() as u32).to_le_bytes());
    for c in components {
        payload.extend_from_slice(&c.to_le_bytes());
    }
    payload.extend_from_slice(&xk_xmltree::encode_tree(fragment));
    let len = u32::try_from(payload.len()).map_err(|_| {
        IndexError::Corrupt(format!(
            "a {}-byte log entry overflows its length field",
            payload.len()
        ))
    })?;
    let mut entry = Vec::with_capacity(ENTRY_HEADER + payload.len());
    entry.extend_from_slice(&len.to_le_bytes());
    entry.extend_from_slice(&xk_storage::crc32(&payload).to_le_bytes());
    entry.extend_from_slice(&payload);
    Ok(entry)
}

/// Reads a little-endian `u32` at `*pos`, advancing it.
fn take_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let field = bytes.get(*pos..pos.checked_add(4)?)?;
    *pos += 4;
    Some(u32::from_le_bytes([field[0], field[1], field[2], field[3]]))
}

/// Replays the log `bytes` onto `tree`.
fn replay_log(tree: &mut XmlTree, bytes: &[u8]) -> Result<()> {
    let corrupt =
        |n: usize, what: String| IndexError::Corrupt(format!("fragment log entry {n}: {what}"));
    let mut pos = 0;
    let mut n = 0;
    while pos < bytes.len() {
        let (Some(len), Some(crc)) = (take_u32(bytes, &mut pos), take_u32(bytes, &mut pos)) else {
            return Err(corrupt(n, "header cut short".into()));
        };
        let payload = pos
            .checked_add(len as usize)
            .and_then(|end| bytes.get(pos..end))
            .ok_or_else(|| corrupt(n, format!("{len}-byte payload cut short")))?;
        pos += payload.len();
        if xk_storage::crc32(payload) != crc {
            return Err(corrupt(n, "checksum mismatch".into()));
        }
        let mut at = 0;
        let depth = take_u32(payload, &mut at).ok_or_else(|| corrupt(n, "no parent".into()))?;
        if depth as usize > payload.len() / 4 {
            return Err(corrupt(
                n,
                format!("parent depth {depth} overruns the entry"),
            ));
        }
        let components = (0..depth)
            .map(|_| take_u32(payload, &mut at))
            .collect::<Option<Vec<u32>>>()
            .ok_or_else(|| corrupt(n, "parent cut short".into()))?;
        let parent = Dewey::from_components(components);
        let fragment = payload
            .get(at..)
            .ok_or_else(|| corrupt(n, "no fragment".into()))
            .and_then(|b| xk_xmltree::decode_tree(b).map_err(|e| corrupt(n, e)))?;
        let parent_id = tail_parent(tree, &parent).map_err(|e| corrupt(n, e))?;
        graft(tree, parent_id, &fragment, NodeId::ROOT);
        n += 1;
    }
    Ok(())
}

/// Resolves `parent` as a valid append target: an element on the
/// document's **rightmost root-to-leaf path**, so every appended node
/// follows every existing node in document order. The engine checks an
/// append with this before accepting it, and replay checks every logged
/// fragment with it again.
pub fn tail_parent(doc: &XmlTree, parent: &Dewey) -> std::result::Result<NodeId, String> {
    let parent_id = doc
        .node_at(parent)
        .ok_or_else(|| format!("no node at {parent}"))?;
    if !doc.content(parent_id).is_element() {
        return Err(format!("cannot append under the text node at {parent}"));
    }
    let mut cursor = NodeId::ROOT;
    while cursor != parent_id {
        match doc.children(cursor).last() {
            Some(&c) => cursor = c,
            None => {
                return Err(format!(
                    "{parent} is not on the document's rightmost path; \
                     incremental ingestion only supports appends at the tail"
                ))
            }
        }
    }
    Ok(parent_id)
}

/// Deep-copies the subtree of `src` rooted at `src_node` as a new last
/// child of `dst_parent`, returning the copy's root id.
pub fn graft(dst: &mut XmlTree, dst_parent: NodeId, src: &XmlTree, src_node: NodeId) -> NodeId {
    let new_id = match src.content(src_node) {
        NodeContent::Element { tag, attributes } => {
            dst.append_element_with_attrs(dst_parent, tag.clone(), attributes.clone())
        }
        NodeContent::Text(t) => dst.append_text(dst_parent, t.clone()),
    };
    for &c in src.children(src_node) {
        graft(dst, new_id, src, c);
    }
    new_id
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_xmltree::school_example;

    fn frag(xml: &str) -> XmlTree {
        xk_xmltree::parse(xml).unwrap()
    }

    /// The school grown by two appends, and the log of those appends.
    fn grown() -> (XmlTree, Vec<u8>) {
        let mut tree = school_example();
        let mut log = Vec::new();
        let appends = [
            ("", "<class><name>Ann</name></class>"),
            ("4", "<student>Zed</student>"),
        ];
        for (parent, xml) in appends {
            let parent: Dewey = parent.parse().unwrap();
            let f = frag(xml);
            let id = tail_parent(&tree, &parent).unwrap();
            graft(&mut tree, id, &f, NodeId::ROOT);
            log.extend_from_slice(&encode_entry(&parent, &f).unwrap());
        }
        (tree, log)
    }

    #[test]
    fn replay_reproduces_the_grown_tree() {
        let (expected, log) = grown();
        let mut tree = school_example();
        replay_log(&mut tree, &log).unwrap();
        assert_eq!(
            xk_xmltree::encode_tree(&tree),
            xk_xmltree::encode_tree(&expected)
        );
    }

    #[test]
    fn every_truncation_and_bit_flip_is_corrupt() {
        let (_, log) = grown();
        let first = u32::from_le_bytes(log[..4].try_into().unwrap()) as usize + ENTRY_HEADER;
        for cut in (1..log.len()).filter(|&c| c != first) {
            let mut tree = school_example();
            let err = replay_log(&mut tree, &log[..cut]).unwrap_err();
            assert!(matches!(err, IndexError::Corrupt(_)), "cut {cut}: {err}");
        }
        for bit in 0..log.len() * 8 {
            let mut bytes = log.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let mut tree = school_example();
            let err = replay_log(&mut tree, &bytes).unwrap_err();
            assert!(matches!(err, IndexError::Corrupt(_)), "bit {bit}: {err}");
        }
    }

    #[test]
    fn parents_off_the_tail_are_corrupt() {
        let f = frag("<x/>");
        // Missing node, text node, and an element off the rightmost path.
        for parent in ["9", "0.0.0", "0"] {
            let entry = encode_entry(&parent.parse().unwrap(), &f).unwrap();
            let mut tree = school_example();
            let err = replay_log(&mut tree, &entry).unwrap_err();
            assert!(matches!(err, IndexError::Corrupt(_)), "{parent}: {err}");
        }
    }
}
