//! Differential property test for the segment layout: the same document
//! and append history, built once into posting B+trees (its appends
//! chained on top in the segment store) and once into packed XKSEG1
//! segments, must be indistinguishable through **both** list traits —
//! identical posting streams, identical `rm`/`lm` probe answers — and
//! through all four algorithms.
//!
//! The seal threshold is randomized so runs cover every source mix: all
//! postings journaled in the mem segment, every append sealed into its
//! own blob, and states in between; an optional compaction pass folds
//! the sealed set through the tiered merge before comparison.

use proptest::prelude::*;
use xk_storage::EnvOptions;
use xk_xmltree::{Dewey, NodeId, XmlTree};
use xksearch::{Algorithm, Engine};

static WORDS: [&str; 6] = ["apple", "pear", "fig", "kiwi", "plum", "date"];

/// Random small XML tree over a tiny alphabet, so keywords repeat across
/// structural and text nodes (same shape as the end-to-end proptest).
fn random_tree() -> impl Strategy<Value = XmlTree> {
    proptest::collection::vec((any::<prop::sample::Index>(), any::<bool>(), 0usize..6), 0..50)
        .prop_map(|instrs| {
            let mut tree = XmlTree::new("root");
            let mut elements = vec![NodeId::ROOT];
            for (parent_idx, is_text, label) in instrs {
                let parent = *parent_idx.get(&elements);
                if is_text {
                    tree.append_text(parent, WORDS[label]);
                } else {
                    let id = tree.append_element(parent, WORDS[label]);
                    elements.push(id);
                }
            }
            tree
        })
}

/// Random appendable fragment: an element wrapping 1–3 words.
fn fragment() -> impl Strategy<Value = String> {
    (0usize..6, proptest::collection::vec(0usize..6, 1..4)).prop_map(|(tag, body)| {
        let text: Vec<&str> = body.into_iter().map(|w| WORDS[w]).collect();
        format!("<{}>{}</{}>", WORDS[tag], text.join(" "), WORDS[tag])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn segment_layout_matches_btree_layout(
        tree in random_tree(),
        frags in proptest::collection::vec(fragment(), 0..6),
        threshold in prop::sample::select(&[1u64, 2, 8, u64::MAX][..]),
        compact in any::<bool>(),
    ) {
        if std::env::var("XK_DIFF_DEBUG").is_ok() {
            eprintln!("=== case: threshold={threshold} compact={compact} frags={frags:?}");
            eprintln!("tree: {}", xk_xmltree::to_xml_string(&tree, NodeId::ROOT));
        }
        let opts = EnvOptions { page_size: 256, pool_pages: 128 };
        let bt = Engine::build_in_memory(&tree, opts.clone()).unwrap();
        let sg = Engine::build_in_memory_segmented(&tree, opts).unwrap();
        sg.set_seal_threshold(threshold);

        for f in &frags {
            let a = bt.append_subtree(&Dewey::root(), f).unwrap();
            let b = sg.append_subtree(&Dewey::root(), f).unwrap();
            prop_assert_eq!(&a.root, &b.root, "append landed at different ids");
            prop_assert_eq!(&a.touched, &b.touched, "append touched different keywords");
        }
        if compact {
            while sg.compact_segments().unwrap().is_some() {}
        }

        for kw in WORDS {
            // StreamList: the full drained posting sequence.
            let a = bt.posting_dump(kw).unwrap();
            let b = sg.posting_dump(kw).unwrap();
            prop_assert_eq!(&a, &b, "stream dump diverged for {:?}", kw);

            // RankedList: rm/lm pairs probed at the root, at every
            // posting, and just past every posting (first child), which
            // lands between neighbors and exercises block boundaries.
            // Probes deeper than the B+tree side's level table (the ids
            // of deep appended nodes) must resolve exactly like the
            // segment side.
            let too_deep = bt.index().level_table().depth() + 1;
            let Some(list) = a else { continue };
            let mut probes = vec![Dewey::root()];
            for d in &list {
                probes.push(d.clone());
                probes.push(d.child(0));
                probes.push((0..too_deep).fold(d.clone(), |p, _| p.child(0)));
            }
            for at in &probes {
                let pa = bt.posting_probe(kw, at).unwrap();
                let pb = sg.posting_probe(kw, at).unwrap();
                prop_assert_eq!(&pa, &pb, "probe diverged for {:?} at {}", kw, at);
            }
        }

        // All four algorithms agree on a representative query mix.
        for q in [
            &["apple"][..],
            &["apple", "pear"][..],
            &["fig", "kiwi", "plum"][..],
            &["date", "apple", "pear", "fig"][..],
        ] {
            for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
                let oa = bt.query(q, algo).unwrap();
                let ob = sg.query(q, algo).unwrap();
                prop_assert_eq!(&oa.slcas, &ob.slcas, "query {:?} algo {}", q, algo);
            }
            let la = bt.query_all_lcas(q).unwrap();
            let lb = sg.query_all_lcas(q).unwrap();
            prop_assert_eq!(&la.lcas, &lb.lcas, "all-LCAs {:?}", q);
        }

        // The sealed store the comparison ran against is internally sound.
        let report = sg.verify_segments().unwrap();
        prop_assert!(report.clean(), "verify issues: {:?}", report.issues);
    }
}
