//! Bi-directional LSTM Tagger with Optional Character Features (paper
//! §IV-E).
//!
//! Identical to [`crate::BiLstmTagger`] except that words with a corpus
//! frequency below 5 have their embedding computed by a character-level
//! bi-directional LSTM instead of a table lookup — so the *content* of the
//! sentence (not just its length) shapes the computation graph.

use dyn_graph::{Graph, LookupId, Model, NodeId, ParamId};
use vpps_datasets::{TaggedCorpus, TaggedSentence};

use crate::bilstm::BiLstmTagger;
use crate::lstm::LstmCell;
use crate::DynamicModel;

/// A sentence paired with its per-word rarity flags (derived from corpus
/// frequencies, as the paper's rule requires).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharTaggedSentence {
    /// The underlying sentence.
    pub sentence: TaggedSentence,
    /// `true` for words whose embedding must come from the char LSTM.
    pub rare: Vec<bool>,
}

impl CharTaggedSentence {
    /// Annotates `sentence` with rarity flags from `corpus`.
    pub fn annotate(sentence: TaggedSentence, corpus: &TaggedCorpus) -> Self {
        let rare = sentence.words.iter().map(|&w| corpus.is_rare(w)).collect();
        Self { sentence, rare }
    }
}

/// The char-feature tagger: a word-level [`BiLstmTagger`] whose rare-word
/// embeddings come from a char-level bi-LSTM (forward and backward final
/// states concatenated).
#[derive(Debug, Clone)]
pub struct BiLstmCharTagger {
    base: BiLstmTagger,
    char_emb: LookupId,
    /// Character-embedding dimension (paper: 64).
    pub char_dim: usize,
    char_fwd: LstmCell,
    char_bwd: LstmCell,
    proj_w: ParamId,
    proj_b: ParamId,
}

impl BiLstmCharTagger {
    /// Registers word-level and character-level parameters.
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        model: &mut Model,
        vocab: usize,
        char_vocab: usize,
        emb_dim: usize,
        char_dim: usize,
        hidden_dim: usize,
        mlp_dim: usize,
        tags: usize,
    ) -> Self {
        let base = BiLstmTagger::register(model, vocab, emb_dim, hidden_dim, mlp_dim, tags);
        let char_emb = model.add_lookup("bilstmchar.char_emb", char_vocab, char_dim);
        let char_h = emb_dim / 2;
        let char_fwd = LstmCell::register(model, "bilstmchar.char_fwd", char_dim, char_h);
        let char_bwd = LstmCell::register(model, "bilstmchar.char_bwd", char_dim, char_h);
        let proj_w = model.add_matrix("bilstmchar.proj.W", emb_dim, 2 * char_h);
        let proj_b = model.add_bias("bilstmchar.proj.b", emb_dim);
        Self {
            base,
            char_emb,
            char_dim,
            char_fwd,
            char_bwd,
            proj_w,
            proj_b,
        }
    }

    /// Builds the char-LSTM embedding for one word's characters.
    fn char_embedding(&self, model: &Model, g: &mut Graph, chars: &[usize]) -> NodeId {
        let xs: Vec<NodeId> = chars
            .iter()
            .map(|&c| g.lookup(model, self.char_emb, c))
            .collect();
        let hs_f = self.char_fwd.run(model, g, &xs);
        let rev: Vec<NodeId> = xs.iter().rev().copied().collect();
        let hs_b = self.char_bwd.run(model, g, &rev);
        let last_f = *hs_f.last().expect("words have at least one char");
        let last_b = *hs_b.last().expect("words have at least one char");
        let both = g.concat(&[last_f, last_b]);
        let p = g.matvec(model, self.proj_w, both);
        let pb = g.add_bias(model, self.proj_b, p);
        g.tanh(pb)
    }
}

impl DynamicModel<CharTaggedSentence> for BiLstmCharTagger {
    fn build(&self, model: &Model, input: &CharTaggedSentence) -> (Graph, NodeId) {
        let s = &input.sentence;
        assert!(!s.is_empty(), "cannot tag an empty sentence");
        assert_eq!(
            s.len(),
            input.rare.len(),
            "rarity flags must align with words"
        );
        let mut g = Graph::new();
        let embeddings: Vec<NodeId> = s
            .words
            .iter()
            .zip(&s.chars)
            .zip(&input.rare)
            .map(|((&w, chars), &rare)| {
                if rare {
                    self.char_embedding(model, &mut g, chars)
                } else {
                    g.lookup(model, self.base.embedding_table(), w)
                }
            })
            .collect();
        let loss = self
            .base
            .build_over_embeddings(model, &mut g, &embeddings, &s.tags);
        (g, loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyn_graph::exec;
    use vpps_datasets::TaggedCorpusConfig;

    fn corpus() -> TaggedCorpus {
        TaggedCorpus::generate(TaggedCorpusConfig {
            vocab: 400,
            sentences: 48,
            min_len: 4,
            max_len: 9,
            ..Default::default()
        })
    }

    fn arch(m: &mut Model) -> BiLstmCharTagger {
        BiLstmCharTagger::register(m, 400, 40, 16, 8, 12, 12, 9)
    }

    #[test]
    fn rare_words_enlarge_the_graph() {
        let mut m = Model::new(13);
        let a = arch(&mut m);
        let c = corpus();
        let with_rare = c
            .sentences()
            .iter()
            .find(|s| s.words.iter().any(|&w| c.is_rare(w)))
            .expect("corpus contains rare words")
            .clone();
        let all_common = CharTaggedSentence {
            rare: vec![false; with_rare.len()],
            sentence: with_rare.clone(),
        };
        let annotated = CharTaggedSentence::annotate(with_rare, &c);
        assert!(annotated.rare.iter().any(|&r| r));
        let (g_rare, _) = a.build(&m, &annotated);
        let (g_common, _) = a.build(&m, &all_common);
        assert!(
            g_rare.len() > g_common.len(),
            "char-LSTM subgraphs must grow the graph: {} vs {}",
            g_rare.len(),
            g_common.len()
        );
    }

    #[test]
    fn loss_is_finite_for_mixed_sentences() {
        let mut m = Model::new(14);
        let a = arch(&mut m);
        let c = corpus();
        for s in c.sentences().iter().take(6).cloned() {
            let annotated = CharTaggedSentence::annotate(s, &c);
            let (g, l) = a.build(&m, &annotated);
            let v = exec::forward(&g, &m)[l.index()][0];
            assert!(v.is_finite() && v > 0.0);
        }
    }

    #[test]
    fn char_path_receives_gradient() {
        let mut m = Model::new(15);
        let a = arch(&mut m);
        let c = corpus();
        let s = c
            .sentences()
            .iter()
            .find(|s| s.words.iter().any(|&w| c.is_rare(w)))
            .unwrap()
            .clone();
        let annotated = CharTaggedSentence::annotate(s, &c);
        let (g, l) = a.build(&m, &annotated);
        exec::forward_backward(&g, &mut m, l);
        let proj = m.param(a.proj_w);
        assert!(
            proj.grad.frobenius_norm() > 0.0,
            "char projection got no gradient"
        );
    }
}
