//! The verifying side of one simplex protected channel.
//!
//! Owns the acknowledgment hash chain, authenticates the peer's signature
//! chain, buffers pre-signatures from S1 packets, and checks every S2
//! against them. In reliable mode it commits to verdicts in the A1 packet
//! (flat pre-(n)acks or an AMT) and discloses them in A2 packets.
//!
//! The verifier is also where ALPHA's flooding defence lives: an
//! unwilling receiver simply never answers S1 with A1
//! ([`VerifierChannel::set_accepting`]), and with relays enforcing the
//! missing A1, unsolicited data dies one hop from its source (§3.5).

use alpha_crypto::amt::AckMerkleTree;
use alpha_crypto::chain::{ChainVerifier, HashChain, Role};
use alpha_crypto::preack::{PreAckPair, PreAckSecrets};
use alpha_crypto::{merkle, Digest};
use alpha_wire::{limits, A2Disclosure, AckCommit, Body, Packet, PreSignature};
use rand::RngCore;

use crate::signer::message_mac;
use crate::{Config, ProtocolError, Reliability, Timestamp};

/// Events surfaced to the application by the verifying side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifierEvent {
    /// Message `seq` verified; payload attached.
    Delivered(u32, Vec<u8>),
    /// All messages of the current exchange have been verified.
    BundleComplete,
}

/// What a verifier-side handler produced.
#[derive(Debug, Default)]
pub struct VerifierOutput {
    /// Packets to put on the wire.
    pub packets: Vec<Packet>,
    /// Application events.
    pub events: Vec<VerifierEvent>,
}

enum BufferedPresig {
    Macs(Vec<Digest>),
    Root {
        root: Digest,
        leaves: u32,
    },
    Forest {
        trees: Vec<alpha_wire::TreeDescriptor>,
        leaves_per_tree: usize,
    },
}

enum AckState {
    /// Unreliable: nothing to disclose.
    None,
    /// Flat pre-(n)ack (Base / ALPHA-C reliable).
    Flat {
        pair: PreAckPair,
        secrets: PreAckSecrets,
        verdict_sent: bool,
    },
    /// AMT (ALPHA-M reliable).
    Amt(AckMerkleTree),
}

impl BufferedExchange {
    fn freeze(&self) -> crate::freeze::FrozenExchange {
        use crate::freeze::{FrozenAck, FrozenExchange, FrozenPresig};
        let presig = match &self.presig {
            BufferedPresig::Macs(macs) => FrozenPresig::Macs(macs.clone()),
            BufferedPresig::Root { root, leaves } => FrozenPresig::Root {
                root: *root,
                leaves: *leaves,
            },
            BufferedPresig::Forest {
                trees,
                leaves_per_tree,
            } => FrozenPresig::Forest {
                trees: trees.clone(),
                leaves_per_tree: *leaves_per_tree as u32,
            },
        };
        let ack = match &self.ack {
            AckState::None => FrozenAck::None,
            AckState::Flat {
                pair,
                secrets,
                verdict_sent,
            } => FrozenAck::Flat {
                pair: *pair,
                secrets: secrets.to_bytes(),
                verdict_sent: *verdict_sent,
            },
            // The tree rebuilds deterministically from its leaf secrets, so
            // only the secrets hibernate.
            AckState::Amt(amt) => FrozenAck::Amt(amt.secrets().to_vec()),
        };
        FrozenExchange {
            s1_index: self.s1_index,
            announce: self.announce,
            presig,
            a1: self.a1.clone(),
            ack_key_index: self.ack_key_index,
            ack_key: self.ack_key,
            ack,
            received: self.received.clone(),
            created_at: self.created_at,
            first_s2_at: self.first_s2_at,
            last_nack_at: self.last_nack_at,
        }
    }

    fn thaw(alg: alpha_crypto::Algorithm, fx: &crate::freeze::FrozenExchange) -> BufferedExchange {
        use crate::freeze::{FrozenAck, FrozenPresig};
        let presig = match &fx.presig {
            FrozenPresig::Macs(macs) => BufferedPresig::Macs(macs.clone()),
            FrozenPresig::Root { root, leaves } => BufferedPresig::Root {
                root: *root,
                leaves: *leaves,
            },
            FrozenPresig::Forest {
                trees,
                leaves_per_tree,
            } => BufferedPresig::Forest {
                trees: trees.clone(),
                leaves_per_tree: *leaves_per_tree as usize,
            },
        };
        let ack = match &fx.ack {
            FrozenAck::None => AckState::None,
            FrozenAck::Flat {
                pair,
                secrets,
                verdict_sent,
            } => AckState::Flat {
                pair: *pair,
                secrets: PreAckSecrets::from_bytes(secrets),
                verdict_sent: *verdict_sent,
            },
            FrozenAck::Amt(secrets) => {
                AckState::Amt(AckMerkleTree::from_secrets(alg, secrets.clone()))
            }
        };
        BufferedExchange {
            s1_index: fx.s1_index,
            announce: fx.announce,
            presig,
            a1: fx.a1.clone(),
            ack_key_index: fx.ack_key_index,
            ack_key: fx.ack_key,
            ack,
            received: fx.received.clone(),
            created_at: fx.created_at,
            first_s2_at: fx.first_s2_at,
            last_nack_at: fx.last_nack_at,
        }
    }
}

struct BufferedExchange {
    /// Chain index of the S1's announce element; the MAC key must disclose
    /// at `s1_index − 1`.
    s1_index: u64,
    /// The authenticated announce element: a late S2's key verifies in one
    /// hash via `derive(s1_index, key) == announce`, even after the chain
    /// tracker has moved on to a newer exchange (packet reordering).
    announce: Digest,
    presig: BufferedPresig,
    /// Stored A1 for idempotent replies to duplicate S1s.
    a1: Packet,
    ack_key_index: u64,
    ack_key: Digest,
    ack: AckState,
    received: Vec<bool>,
    created_at: Timestamp,
    /// Set once at least one S2 arrived (the signer is in its burst phase,
    /// so missing sequence numbers indicate loss rather than not-yet-sent).
    first_s2_at: Option<Timestamp>,
    /// Last time timeout-nacks were emitted, to pace them at one RTO.
    last_nack_at: Timestamp,
}

/// The verifier half of a simplex channel.
pub struct VerifierChannel {
    assoc_id: u64,
    cfg: Config,
    ack_chain: HashChain,
    peer_sig: ChainVerifier,
    current: Option<BufferedExchange>,
    /// The most recently superseded exchange: S2 packets that were
    /// overtaken by the next exchange's S1 (reordering on multi-hop
    /// paths) still verify against it.
    previous: Option<BufferedExchange>,
    accepting: bool,
    /// Exchanges expire after this many microseconds without completing.
    exchange_ttl: u64,
}

impl VerifierChannel {
    /// Build from the verifier's own acknowledgment chain and the peer's
    /// signature anchor.
    #[must_use]
    pub fn new(
        assoc_id: u64,
        cfg: Config,
        ack_chain: HashChain,
        peer_sig_anchor: Digest,
        peer_sig_anchor_index: u64,
    ) -> VerifierChannel {
        let peer_sig = ChainVerifier::new(
            cfg.algorithm,
            alpha_crypto::chain::ChainKind::RoleBoundSignature,
            peer_sig_anchor,
            peer_sig_anchor_index,
        )
        .with_max_skip(cfg.max_skip);
        VerifierChannel {
            assoc_id,
            cfg,
            ack_chain,
            peer_sig,
            current: None,
            previous: None,
            accepting: true,
            exchange_ttl: cfg
                .rto_micros
                .saturating_mul(u64::from(cfg.max_retries) + 5),
        }
    }

    /// Declare (un)willingness to receive. While `false`, S1 packets are
    /// silently ignored — the receiver-consent flooding defence of §3.5.
    pub fn set_accepting(&mut self, accepting: bool) {
        self.accepting = accepting;
    }

    /// Whether this channel currently answers S1 packets.
    #[must_use]
    pub fn is_accepting(&self) -> bool {
        self.accepting
    }

    /// Bytes buffered for the current exchange: the verifier's `n·h` of
    /// Table 2 (one MAC per message in Base/ALPHA-C, a single root in
    /// ALPHA-M), plus acknowledgment state (Table 3).
    #[must_use]
    pub fn buffered_bytes(&self) -> usize {
        let h = self.cfg.algorithm.digest_len();
        match &self.current {
            None => 0,
            Some(ex) => {
                let presig = match &ex.presig {
                    BufferedPresig::Macs(m) => m.len() * h,
                    BufferedPresig::Root { .. } => h,
                    BufferedPresig::Forest { trees, .. } => trees.len() * h,
                };
                let ack = match &ex.ack {
                    AckState::None => 0,
                    AckState::Flat { pair, secrets, .. } => {
                        pair.stored_bytes() + secrets.stored_bytes()
                    }
                    AckState::Amt(amt) => amt.stored_bytes(),
                };
                presig + ack
            }
        }
    }

    /// Process an S1 packet. Returns the A1 reply (or nothing while
    /// unwilling to receive).
    pub fn handle_s1(
        &mut self,
        pkt: &Packet,
        now: Timestamp,
        rng: &mut dyn RngCore,
    ) -> Result<VerifierOutput, ProtocolError> {
        self.check_packet(pkt)?;
        let Body::S1 { element, presig } = &pkt.body else {
            return Err(ProtocolError::UnexpectedPacket);
        };
        if !self.accepting {
            return Ok(VerifierOutput::default());
        }
        // Duplicate of the current exchange's S1 (lost A1): replay the A1.
        if let Some(ex) = &self.current {
            if ex.s1_index == pkt.chain_index {
                return Ok(VerifierOutput {
                    packets: vec![ex.a1.clone()],
                    events: Vec::new(),
                });
            }
        }
        let covered = presig.covered();
        if covered == 0 || covered > limits::MAX_LEAVES {
            return Err(ProtocolError::TooManyMessages);
        }
        self.peer_sig
            .accept_role(pkt.chain_index, element, Role::Announce)?;

        let alg = self.cfg.algorithm;
        let presig = match presig {
            PreSignature::Cumulative(macs) => BufferedPresig::Macs(macs.clone()),
            PreSignature::MerkleRoot { root, leaves } => BufferedPresig::Root {
                root: *root,
                leaves: *leaves,
            },
            PreSignature::MerkleForest(trees) => {
                // Every tree but the last must be the same size so global
                // sequence numbers map unambiguously to (tree, leaf).
                let lpt = trees[0].leaves as usize;
                let full = &trees[..trees.len() - 1];
                if lpt == 0 || full.iter().any(|t| t.leaves as usize != lpt) {
                    return Err(ProtocolError::UnexpectedPacket);
                }
                if trees[trees.len() - 1].leaves as usize > lpt {
                    return Err(ProtocolError::UnexpectedPacket);
                }
                BufferedPresig::Forest {
                    trees: trees.clone(),
                    leaves_per_tree: lpt,
                }
            }
        };
        let ((a_index, a_element), (ack_key_index, ack_key)) = self
            .ack_chain
            .disclose_pair()
            .map_err(|_| ProtocolError::ChainExhausted)?;

        let (ack, commit) = if self.cfg.reliability == Reliability::Reliable {
            match &presig {
                BufferedPresig::Macs(_) => {
                    let (pair, secrets) = alpha_crypto::preack::generate(alg, &ack_key, rng);
                    (
                        AckState::Flat {
                            pair,
                            secrets,
                            verdict_sent: false,
                        },
                        AckCommit::Flat {
                            pre_ack: pair.pre_ack,
                            pre_nack: pair.pre_nack,
                        },
                    )
                }
                BufferedPresig::Root { .. } | BufferedPresig::Forest { .. } => {
                    let amt = AckMerkleTree::generate(alg, covered as usize, rng);
                    let root = amt.keyed_root(&ack_key);
                    (
                        AckState::Amt(amt),
                        AckCommit::Amt {
                            root,
                            leaves: covered,
                        },
                    )
                }
            }
        } else {
            (AckState::None, AckCommit::None)
        };

        let a1 = Packet {
            assoc_id: self.assoc_id,
            alg,
            chain_index: a_index,
            body: Body::A1 {
                element: a_element,
                commit,
            },
        };
        self.previous = self.current.take();
        self.current = Some(BufferedExchange {
            s1_index: pkt.chain_index,
            announce: *element,
            presig,
            a1: a1.clone(),
            ack_key_index,
            ack_key,
            ack,
            received: vec![false; covered as usize],
            created_at: now,
            first_s2_at: None,
            last_nack_at: Timestamp::ZERO,
        });
        Ok(VerifierOutput {
            packets: vec![a1],
            events: Vec::new(),
        })
    }

    /// Process an S2 packet: authenticate the disclosed key, check the
    /// message against the buffered pre-signature, deliver the payload and
    /// (in reliable mode) disclose a verdict.
    pub fn handle_s2(
        &mut self,
        pkt: &Packet,
        now: Timestamp,
    ) -> Result<VerifierOutput, ProtocolError> {
        let Body::S2 {
            key,
            seq,
            path,
            payload,
        } = &pkt.body
        else {
            return Err(ProtocolError::UnexpectedPacket);
        };
        self.handle_s2_fields(
            pkt.assoc_id,
            pkt.alg,
            pkt.chain_index,
            key,
            *seq,
            path,
            payload,
            now,
        )
    }

    /// Field-level S2 processing shared by the owned-packet path and the
    /// zero-copy [`alpha_wire::PacketView`] path: the key, authentication
    /// path and payload arrive as borrowed slices and the payload is
    /// copied exactly once, on first-time delivery.
    #[allow(clippy::too_many_arguments)] // one call site per decode path
    pub fn handle_s2_fields(
        &mut self,
        assoc_id: u64,
        alg: alpha_crypto::Algorithm,
        chain_index: u64,
        key: &Digest,
        seq: u32,
        path: &[Digest],
        payload: &[u8],
        now: Timestamp,
    ) -> Result<VerifierOutput, ProtocolError> {
        if assoc_id != self.assoc_id {
            return Err(ProtocolError::WrongAssociation);
        }
        if alg != self.cfg.algorithm {
            return Err(ProtocolError::WrongAlgorithm);
        }
        let in_current = self
            .current
            .as_ref()
            .is_some_and(|ex| chain_index == ex.s1_index - 1);
        let in_previous = !in_current
            && self
                .previous
                .as_ref()
                .is_some_and(|ex| chain_index == ex.s1_index - 1);
        if !in_current && !in_previous {
            return Err(ProtocolError::NoExchange);
        }
        // Allowlist: `in_current`/`in_previous` just verified the
        // corresponding exchange is populated.
        let ex = if in_current {
            self.current.as_mut().expect("checked")
        } else {
            self.previous.as_mut().expect("checked")
        };
        if seq as usize >= ex.received.len() {
            return Err(ProtocolError::BadSeq);
        }
        // Authenticate the disclosed MAC key. For the current exchange the
        // first S2 advances the chain tracker; for a superseded exchange
        // (its announce already authenticated, the tracker moved on) one
        // forward derivation links the key to the stored announce element.
        if in_current {
            let (last_index, last) = self.peer_sig.last();
            if chain_index == last_index {
                if !alpha_crypto::ct_eq(key.as_bytes(), last.as_bytes()) {
                    return Err(ProtocolError::Chain(
                        alpha_crypto::chain::ChainError::Mismatch,
                    ));
                }
            } else {
                self.peer_sig
                    .accept_role(chain_index, key, Role::Disclose)?;
            }
        } else {
            let derived = alpha_crypto::chain::derive(
                alg,
                alpha_crypto::chain::ChainKind::RoleBoundSignature,
                ex.s1_index,
                key,
            );
            if !alpha_crypto::ct_eq(derived.as_bytes(), ex.announce.as_bytes()) {
                return Err(ProtocolError::Chain(
                    alpha_crypto::chain::ChainError::Mismatch,
                ));
            }
        }

        // Verify the message against the buffered pre-signature.
        let valid = match &ex.presig {
            BufferedPresig::Macs(macs) => {
                let mac = message_mac(alg, self.cfg.mac_scheme, key, seq, payload);
                alpha_crypto::ct_eq(mac.as_bytes(), macs[seq as usize].as_bytes())
            }
            BufferedPresig::Root { root, leaves } => {
                let expected_depth = merkle::log2_ceil(u64::from(*leaves).max(1)) as usize;
                path.len() == expected_depth
                    && merkle::verify_keyed(alg, key, &alg.hash(payload), seq as usize, path, root)
            }
            BufferedPresig::Forest {
                trees,
                leaves_per_tree,
            } => {
                let t = seq as usize / leaves_per_tree;
                let j = seq as usize % leaves_per_tree;
                let tree = &trees[t];
                let expected_depth = merkle::log2_ceil(u64::from(tree.leaves).max(1)) as usize;
                j < tree.leaves as usize
                    && path.len() == expected_depth
                    && merkle::verify_keyed(alg, key, &alg.hash(payload), j, path, &tree.root)
            }
        };

        let mut out = VerifierOutput::default();
        if !valid {
            // Reliable mode: disclose a nack so the signer retransmits
            // without waiting for its timer; unreliable mode: drop.
            if let Some(a2) = self.make_verdict(in_current, seq, false) {
                out.packets.push(a2);
                return Ok(out);
            }
            return Err(ProtocolError::BadMac);
        }

        // Allowlist: the exchange matched above cannot have been released
        // by the verdict construction.
        let ex = if in_current {
            self.current.as_mut().expect("still current")
        } else {
            self.previous.as_mut().expect("still previous")
        };
        if ex.first_s2_at.is_none() {
            ex.first_s2_at = Some(now);
        }
        let first_time = !ex.received[seq as usize];
        ex.received[seq as usize] = true;
        if first_time {
            // The only payload copy on the delivery path.
            out.events
                .push(VerifierEvent::Delivered(seq, payload.to_vec()));
        }
        let complete = ex.received.iter().all(|&r| r);
        if complete && first_time {
            out.events.push(VerifierEvent::BundleComplete);
        }
        if let Some(a2) = self.make_verdict(in_current, seq, true) {
            out.packets.push(a2);
        }
        Ok(out)
    }

    /// Replace this channel's acknowledgment chain (chain renewal).
    pub fn install_chain(&mut self, ack_chain: HashChain) {
        self.ack_chain = ack_chain;
    }

    /// Re-anchor the peer's signature chain (the peer renewed). Clears any
    /// buffered exchange: subsequent S1 packets use the new chain.
    pub fn replace_peer_sig(&mut self, anchor: Digest, anchor_index: u64) {
        self.peer_sig = ChainVerifier::new(
            self.cfg.algorithm,
            alpha_crypto::chain::ChainKind::RoleBoundSignature,
            anchor,
            anchor_index,
        )
        .with_max_skip(self.cfg.max_skip);
        self.current = None;
        self.previous = None;
    }

    /// Freeze this channel for hibernation. Unlike the signer side this
    /// always succeeds: buffered exchanges (a flow asleep mid-bundle)
    /// serialize in full, so a late S2 after thaw verifies exactly as it
    /// would have against the live channel.
    pub(crate) fn freeze(&self) -> crate::freeze::FrozenVerifier {
        let (peer_sig_index, peer_sig_last) = self.peer_sig.last();
        crate::freeze::FrozenVerifier {
            ack_chain: self.ack_chain.freeze(),
            peer_sig_index,
            peer_sig_last,
            accepting: self.accepting,
            current: self.current.as_ref().map(BufferedExchange::freeze),
            previous: self.previous.as_ref().map(BufferedExchange::freeze),
        }
    }

    /// Rebuild a channel from its frozen record. The acknowledgment
    /// chain thaws dormant: it is re-derived from its seed hash on the
    /// first A1 this channel discloses, after the packet that prompts it
    /// has passed the peer-chain check.
    pub(crate) fn thaw(
        assoc_id: u64,
        cfg: Config,
        frozen: &crate::freeze::FrozenVerifier,
    ) -> VerifierChannel {
        let mut ch = VerifierChannel::new(
            assoc_id,
            cfg,
            frozen.ack_chain.thaw(),
            frozen.peer_sig_last,
            frozen.peer_sig_index,
        );
        ch.accepting = frozen.accepting;
        ch.current = frozen
            .current
            .as_ref()
            .map(|fx| BufferedExchange::thaw(cfg.algorithm, fx));
        ch.previous = frozen
            .previous
            .as_ref()
            .map(|fx| BufferedExchange::thaw(cfg.algorithm, fx));
        ch
    }

    /// Expire a stale exchange, and — in reliable AMT mode — proactively
    /// nack sequence numbers still missing one RTO after the burst began,
    /// so the signer repairs loss without waiting out its own timer.
    /// Returns nack packets to transmit.
    pub fn poll(&mut self, now: Timestamp) -> Vec<Packet> {
        if let Some(ex) = &self.current {
            if now.since(ex.created_at) > self.exchange_ttl {
                self.current = None;
            }
        }
        if let Some(ex) = &self.previous {
            if now.since(ex.created_at) > self.exchange_ttl {
                self.previous = None;
            }
        }
        let rto = self.cfg.rto_micros;
        let missing: Vec<u32> = match &self.current {
            Some(ex)
                if matches!(ex.ack, AckState::Amt(_))
                    && ex.first_s2_at.is_some_and(|t| now.since(t) >= rto)
                    && now.since(ex.last_nack_at) >= rto
                    && ex.received.iter().any(|r| !r) =>
            {
                ex.received
                    .iter()
                    .enumerate()
                    .filter(|(_, &r)| !r)
                    .map(|(i, _)| i as u32)
                    .collect()
            }
            _ => return Vec::new(),
        };
        // Allowlist: `missing` is only non-empty when the match above saw
        // `Some(ex)` with an AMT ack state, and nothing in between mutates
        // `self.current`.
        let ex = self.current.as_mut().expect("matched above");
        ex.last_nack_at = now;
        let AckState::Amt(amt) = &ex.ack else {
            unreachable!("matched above")
        };
        let items: Vec<_> = missing
            .iter()
            .map(|&seq| amt.disclose(seq as usize, false))
            .collect();
        vec![Packet {
            assoc_id: self.assoc_id,
            alg: self.cfg.algorithm,
            chain_index: ex.ack_key_index,
            body: Body::A2 {
                element: ex.ack_key,
                disclosure: A2Disclosure::Amt(items),
            },
        }]
    }

    /// Construct the verdict A2 for `seq` if the mode calls for one.
    ///
    /// Flat mode sends a single ack once the whole bundle has verified (or
    /// a nack at the first failure); AMT mode acknowledges every packet
    /// individually (selective acknowledgment).
    fn make_verdict(&mut self, in_current: bool, seq: u32, ok: bool) -> Option<Packet> {
        let ex = if in_current {
            self.current.as_mut()?
        } else {
            self.previous.as_mut()?
        };
        let (disclosure, key_index, key) = match &mut ex.ack {
            AckState::None => return None,
            AckState::Flat {
                pair: _,
                secrets,
                verdict_sent,
            } => {
                if ok {
                    let all = ex.received.iter().all(|&r| r);
                    if !all {
                        return None;
                    }
                    *verdict_sent = true;
                } else if *verdict_sent {
                    return None;
                }
                let d = alpha_crypto::preack::disclose(secrets, ok);
                (
                    A2Disclosure::Flat {
                        ack: d.ack,
                        secret: d.secret,
                    },
                    ex.ack_key_index,
                    ex.ack_key,
                )
            }
            AckState::Amt(amt) => {
                let d = amt.disclose(seq as usize, ok);
                (A2Disclosure::Amt(vec![d]), ex.ack_key_index, ex.ack_key)
            }
        };
        Some(Packet {
            assoc_id: self.assoc_id,
            alg: self.cfg.algorithm,
            chain_index: key_index,
            body: Body::A2 {
                element: key,
                disclosure,
            },
        })
    }

    fn check_packet(&self, pkt: &Packet) -> Result<(), ProtocolError> {
        if pkt.assoc_id != self.assoc_id {
            return Err(ProtocolError::WrongAssociation);
        }
        if pkt.alg != self.cfg.algorithm {
            return Err(ProtocolError::WrongAlgorithm);
        }
        Ok(())
    }
}
