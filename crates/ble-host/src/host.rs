//! The host stack glue: one object implementing
//! [`ble_link::LinkLayerDelegate`] that routes L2CAP channels to the GATT
//! server, the ATT client bookkeeping and the Security Manager.

use std::collections::VecDeque;

use ble_link::{DeviceAddress, LinkLayerDelegate, Llid, Role};
use simkit::SimRng;

use crate::att::{self, AttPdu};
use crate::gatt::{GattEvent, GattServer};
use crate::l2cap::{self, Reassembler, CID_ATT, CID_SMP, DEFAULT_LL_PAYLOAD};
use crate::pool::{PacketPool, PooledBuf};
use crate::smp::{SmpContext, SmpInitiator, SmpOutcome, SmpPdu, SmpResponder};
use crate::uuid::Uuid;

/// Application-level events produced by the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostEvent {
    /// The Link Layer connected.
    Connected {
        /// Our role.
        role: Role,
        /// Peer address.
        peer: DeviceAddress,
    },
    /// The Link Layer disconnected.
    Disconnected {
        /// HCI reason code.
        reason: u8,
    },
    /// A peer wrote one of our characteristics.
    Written {
        /// Value handle.
        handle: u16,
        /// New value (pool-borrowed on the steady-state path).
        value: PooledBuf,
        /// Whether it was an acknowledged Write Request.
        acknowledged: bool,
    },
    /// A peer read one of our characteristics.
    ReadByPeer {
        /// Value handle.
        handle: u16,
    },
    /// A Read Response arrived for our Read Request.
    ReadResponse {
        /// The value read.
        value: Vec<u8>,
    },
    /// Our Write Request was acknowledged.
    WriteConfirmed,
    /// An ATT Error Response arrived.
    AttError {
        /// Opcode of our failed request.
        request_opcode: u8,
        /// Related handle.
        handle: u16,
        /// ATT error code.
        code: u8,
    },
    /// A notification arrived.
    Notification {
        /// Source handle.
        handle: u16,
        /// The value (pool-borrowed on the steady-state path).
        value: PooledBuf,
    },
    /// A Read By Group Type response (service discovery data).
    ServicesDiscovered {
        /// Entry length.
        entry_len: u8,
        /// Raw concatenated entries.
        data: Vec<u8>,
    },
    /// A Read By Type response (characteristic discovery data).
    CharacteristicsDiscovered {
        /// Entry length.
        entry_len: u8,
        /// Raw concatenated entries.
        data: Vec<u8>,
    },
    /// The ATT MTU was negotiated.
    MtuExchanged(u16),
    /// Pairing finished; both sides hold this key.
    PairingComplete {
        /// The derived Short-Term Key (used as the link key).
        stk: [u8; 16],
    },
    /// Pairing failed.
    PairingFailed(u8),
    /// Link encryption switched on or off.
    EncryptionChanged(bool),
}

/// A request from the host stack to the Link Layer that only the device
/// (which owns the `LinkLayer`) can execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityAction {
    /// Start the LL encryption procedure with this key.
    StartEncryption {
        /// The key (STK or LTK).
        key: [u8; 16],
        /// `Rand` identifier.
        rand: [u8; 8],
        /// `EDIV` identifier.
        ediv: u16,
    },
}

/// The host stack: GATT server + ATT client + SMP over L2CAP.
///
/// Wire it to a [`ble_link::LinkLayer`] by passing it as the delegate to
/// `LinkLayer::handle`; drive it from the application through the `read` /
/// `write` / `notify` methods and by draining [`HostStack::poll_event`].
#[derive(Debug)]
pub struct HostStack {
    local_addr: DeviceAddress,
    server: GattServer,
    reassembler: Reassembler,
    ll_out: VecDeque<(Llid, PooledBuf)>,
    pool: PacketPool,
    pool_client: usize,
    tx_sdu: Vec<u8>,
    rx_sdu: Vec<u8>,
    events: VecDeque<HostEvent>,
    actions: VecDeque<SecurityAction>,
    smp_initiator: Option<SmpInitiator>,
    smp_responder: Option<SmpResponder>,
    bonded_key: Option<[u8; 16]>,
    role: Option<Role>,
    peer: Option<DeviceAddress>,
    rng: SimRng,
    encrypted: bool,
}

impl HostStack {
    /// Creates a stack around a GATT server, with a private
    /// [`PacketPool::default_for_host`] pool. Multi-connection owners share
    /// one pool across stacks via [`HostStack::set_pool`].
    pub fn new(local_addr: DeviceAddress, server: GattServer, rng: SimRng) -> Self {
        HostStack {
            local_addr,
            server,
            reassembler: Reassembler::new(),
            ll_out: VecDeque::new(),
            pool: PacketPool::default_for_host(),
            pool_client: 0,
            tx_sdu: Vec::new(),
            rx_sdu: Vec::new(),
            events: VecDeque::new(),
            actions: VecDeque::new(),
            smp_initiator: None,
            smp_responder: None,
            bonded_key: None,
            role: None,
            peer: None,
            rng,
            encrypted: false,
        }
    }

    /// Replaces the buffer pool and this stack's client index within it.
    /// A multi-connection Central calls this once per slot so every stack
    /// draws from one shared, QoS-arbitrated pool.
    ///
    /// Call before traffic flows: buffers already queued stay with their
    /// original pool (they return there on drop), so switching mid-stream
    /// is safe but mixes accounting.
    pub fn set_pool(&mut self, pool: PacketPool, client: usize) {
        self.pool = pool;
        self.pool_client = client;
    }

    /// The buffer pool this stack draws from.
    pub fn pool(&self) -> &PacketPool {
        &self.pool
    }

    /// The GATT server.
    pub fn server(&self) -> &GattServer {
        &self.server
    }

    /// Mutable access to the GATT server (e.g. `set_value`).
    pub fn server_mut(&mut self) -> &mut GattServer {
        &mut self.server
    }

    /// Pops the next application event.
    pub fn poll_event(&mut self) -> Option<HostEvent> {
        self.events.pop_front()
    }

    /// Pops the next pending Link-Layer action.
    pub fn take_action(&mut self) -> Option<SecurityAction> {
        self.actions.pop_front()
    }

    /// Whether link encryption is currently active.
    pub fn is_encrypted(&self) -> bool {
        self.encrypted
    }

    /// Our current role, if connected.
    pub fn role(&self) -> Option<Role> {
        self.role
    }

    /// The bonded key, if any.
    pub fn bonded_key(&self) -> Option<[u8; 16]> {
        self.bonded_key
    }

    // ----- client operations ------------------------------------------------

    /// Sends an ATT Read Request.
    pub fn read(&mut self, handle: u16) {
        self.send_att(&AttPdu::ReadRequest { handle });
    }

    /// Sends an ATT Write Request (acknowledged).
    pub fn write(&mut self, handle: u16, value: Vec<u8>) {
        self.send_att(&AttPdu::WriteRequest { handle, value });
    }

    /// Sends an ATT Write Command (unacknowledged). This is a steady-state
    /// fast path: the PDU is encoded into a reused scratch buffer and
    /// queued in pool-borrowed fragments — no heap allocation.
    pub fn write_command(&mut self, handle: u16, value: &[u8]) {
        self.send_handle_value(att::opcode::WRITE_COMMAND, handle, value);
    }

    /// Sends a Handle Value Notification (server push). Steady-state fast
    /// path like [`HostStack::write_command`].
    pub fn notify(&mut self, handle: u16, value: &[u8]) {
        self.send_handle_value(att::opcode::NOTIFICATION, handle, value);
    }

    fn send_handle_value(&mut self, opcode: u8, handle: u16, value: &[u8]) {
        let mut sdu = std::mem::take(&mut self.tx_sdu);
        sdu.clear();
        att::encode_handle_value_into(opcode, handle, value, &mut sdu);
        self.send_sdu(CID_ATT, &sdu);
        self.tx_sdu = sdu;
    }

    /// Starts primary service discovery.
    pub fn discover_services(&mut self) {
        self.send_att(&AttPdu::ReadByGroupTypeRequest {
            start: 1,
            end: 0xFFFF,
            group_type: Uuid::PRIMARY_SERVICE,
        });
    }

    /// Discovers characteristics of a given type (e.g. Device Name).
    pub fn read_by_type(&mut self, attribute_type: Uuid) {
        self.send_att(&AttPdu::ReadByTypeRequest {
            start: 1,
            end: 0xFFFF,
            attribute_type,
        });
    }

    /// Initiates an MTU exchange.
    pub fn exchange_mtu(&mut self, mtu: u16) {
        self.send_att(&AttPdu::ExchangeMtuRequest { mtu });
    }

    /// Master side: starts Just Works pairing. After success the stack
    /// emits [`SecurityAction::StartEncryption`] automatically.
    ///
    /// # Panics
    ///
    /// Panics if not connected as master.
    pub fn start_pairing(&mut self) {
        assert_eq!(
            self.role,
            Some(Role::Master),
            "pairing initiator must be master"
        );
        let ctx = self.smp_ctx().expect("connected");
        let (initiator, first) = SmpInitiator::start(ctx, &mut self.rng);
        self.smp_initiator = Some(initiator);
        self.send_smp(&first);
    }

    /// Master side: (re-)encrypts the link with the bonded key.
    ///
    /// # Panics
    ///
    /// Panics if no key is bonded.
    pub fn encrypt_with_bonded_key(&mut self) {
        let key = self.bonded_key.expect("no bonded key");
        self.actions.push_back(SecurityAction::StartEncryption {
            key,
            rand: [0; 8],
            ediv: 0,
        });
    }

    fn smp_ctx(&self) -> Option<SmpContext> {
        let peer = self.peer?;
        let (ia, iat, ra, rat) = match self.role? {
            Role::Master => (
                self.local_addr.octets,
                self.local_addr.kind.bit(),
                peer.octets,
                peer.kind.bit(),
            ),
            Role::Slave => (
                peer.octets,
                peer.kind.bit(),
                self.local_addr.octets,
                self.local_addr.kind.bit(),
            ),
        };
        Some(SmpContext { ia, iat, ra, rat })
    }

    /// Fragments one SDU into pool-borrowed LL payloads on the TX queue.
    fn send_sdu(&mut self, cid: u16, sdu: &[u8]) {
        let pool = &self.pool;
        let client = self.pool_client;
        let ll_out = &mut self.ll_out;
        l2cap::fragment_into(cid, sdu, DEFAULT_LL_PAYLOAD, |llid, prefix, data| {
            let mut buf = pool.alloc_or_heap(client);
            buf.extend_from_slice(prefix);
            buf.extend_from_slice(data);
            ll_out.push_back((llid, buf));
        });
    }

    fn send_att(&mut self, pdu: &AttPdu) {
        let bytes = pdu.to_bytes();
        self.send_sdu(CID_ATT, &bytes);
    }

    fn send_smp(&mut self, pdu: &SmpPdu) {
        let bytes = pdu.to_bytes();
        self.send_sdu(CID_SMP, &bytes);
    }

    fn on_att_sdu(&mut self, sdu: &[u8]) {
        // Steady-state fast paths: the two unacknowledged opcodes are
        // parsed borrowed and their values land in pool buffers, so the
        // hot RX path never materialises an `AttPdu`.
        if let Some((op, handle, value)) = att::parse_handle_value(sdu) {
            if op == att::opcode::WRITE_COMMAND {
                if self.server.apply_write_command(handle, value) {
                    let mut buf = self.pool.alloc_or_heap(self.pool_client);
                    buf.extend_from_slice(value);
                    self.events.push_back(HostEvent::Written {
                        handle,
                        value: buf,
                        acknowledged: false,
                    });
                }
            } else {
                let mut buf = self.pool.alloc_or_heap(self.pool_client);
                buf.extend_from_slice(value);
                self.events
                    .push_back(HostEvent::Notification { handle, value: buf });
            }
            return;
        }
        let Some(pdu) = AttPdu::from_bytes(sdu) else {
            return;
        };
        match &pdu {
            // Server-side requests.
            AttPdu::ReadRequest { .. }
            | AttPdu::WriteRequest { .. }
            | AttPdu::WriteCommand { .. }
            | AttPdu::ReadByGroupTypeRequest { .. }
            | AttPdu::ReadByTypeRequest { .. }
            | AttPdu::ExchangeMtuRequest { .. } => {
                let (response, gatt_events) = self.server.handle_att(&pdu);
                if let Some(rsp) = response {
                    self.send_att(&rsp);
                }
                for ev in gatt_events {
                    self.events.push_back(match ev {
                        GattEvent::Written {
                            handle,
                            value,
                            acknowledged,
                        } => HostEvent::Written {
                            handle,
                            value: value.into(),
                            acknowledged,
                        },
                        GattEvent::Read { handle } => HostEvent::ReadByPeer { handle },
                    });
                }
            }
            // Client-side responses.
            AttPdu::ReadResponse { value } => self.events.push_back(HostEvent::ReadResponse {
                value: value.clone(),
            }),
            AttPdu::WriteResponse => self.events.push_back(HostEvent::WriteConfirmed),
            AttPdu::ErrorResponse {
                request_opcode,
                handle,
                code,
            } => self.events.push_back(HostEvent::AttError {
                request_opcode: *request_opcode,
                handle: *handle,
                code: *code,
            }),
            AttPdu::Notification { handle, value } => {
                self.events.push_back(HostEvent::Notification {
                    handle: *handle,
                    value: value.clone().into(),
                })
            }
            AttPdu::ReadByGroupTypeResponse { entry_len, data } => {
                self.events.push_back(HostEvent::ServicesDiscovered {
                    entry_len: *entry_len,
                    data: data.clone(),
                })
            }
            AttPdu::ReadByTypeResponse { entry_len, data } => {
                self.events.push_back(HostEvent::CharacteristicsDiscovered {
                    entry_len: *entry_len,
                    data: data.clone(),
                })
            }
            AttPdu::ExchangeMtuResponse { mtu } => {
                self.events.push_back(HostEvent::MtuExchanged(*mtu))
            }
            AttPdu::Indication { handle, value } => {
                self.events.push_back(HostEvent::Notification {
                    handle: *handle,
                    value: value.clone().into(),
                });
                self.send_att(&AttPdu::Confirmation);
            }
            AttPdu::Confirmation => {}
        }
    }

    fn on_smp_sdu(&mut self, sdu: &[u8]) {
        let Some(pdu) = SmpPdu::from_bytes(sdu) else {
            return;
        };
        // Lazily create the responder when a Pairing Request arrives.
        if matches!(pdu, SmpPdu::PairingRequest { .. })
            && self.role == Some(Role::Slave)
            && self.smp_responder.is_none()
        {
            let Some(ctx) = self.smp_ctx() else {
                return;
            };
            self.smp_responder = Some(SmpResponder::new(ctx, &mut self.rng));
        }
        let (reply, outcome) = if let Some(init) = self.smp_initiator.as_mut() {
            init.on_pdu(&pdu)
        } else if let Some(resp) = self.smp_responder.as_mut() {
            resp.on_pdu(&pdu)
        } else {
            (None, None)
        };
        if let Some(reply) = reply {
            self.send_smp(&reply);
        }
        match outcome {
            Some(SmpOutcome::Stk(stk)) => {
                self.bonded_key = Some(stk);
                self.events.push_back(HostEvent::PairingComplete { stk });
                if self.role == Some(Role::Master) {
                    self.actions.push_back(SecurityAction::StartEncryption {
                        key: stk,
                        rand: [0; 8],
                        ediv: 0,
                    });
                }
                self.smp_initiator = None;
                self.smp_responder = None;
            }
            Some(SmpOutcome::Failed(reason)) => {
                self.events.push_back(HostEvent::PairingFailed(reason));
                self.smp_initiator = None;
                self.smp_responder = None;
            }
            None => {}
        }
    }
}

impl LinkLayerDelegate for HostStack {
    fn on_connected(
        &mut self,
        role: Role,
        _params: &ble_link::ConnectionParams,
        peer: DeviceAddress,
    ) {
        self.role = Some(role);
        self.peer = Some(peer);
        self.encrypted = false;
        self.reassembler.reset();
        self.ll_out.clear();
        self.events.push_back(HostEvent::Connected { role, peer });
    }

    fn on_disconnected(&mut self, reason: u8) {
        self.role = None;
        self.peer = None;
        self.encrypted = false;
        self.smp_initiator = None;
        self.smp_responder = None;
        self.reassembler.reset();
        self.ll_out.clear();
        self.events.push_back(HostEvent::Disconnected { reason });
    }

    fn on_data(&mut self, llid: Llid, payload: &[u8]) {
        // `rx_sdu` is a reused scratch buffer: take it out so the
        // reassembler can fill it while the dispatch below borrows `self`.
        let mut sdu = std::mem::take(&mut self.rx_sdu);
        if let Some(cid) = self.reassembler.push_into(llid, payload, &mut sdu) {
            match cid {
                CID_ATT => self.on_att_sdu(&sdu),
                CID_SMP => self.on_smp_sdu(&sdu),
                _ => {}
            }
        }
        self.rx_sdu = sdu;
    }

    fn poll_outgoing(&mut self, out: &mut Vec<u8>) -> Option<Llid> {
        let (llid, buf) = self.ll_out.pop_front()?;
        out.clear();
        out.extend_from_slice(&buf);
        Some(llid) // `buf` drops here and returns to the pool
    }

    fn has_outgoing(&self) -> bool {
        !self.ll_out.is_empty()
    }

    fn on_encryption_change(&mut self, enabled: bool) {
        self.encrypted = enabled;
        self.events.push_back(HostEvent::EncryptionChanged(enabled));
    }

    fn ltk_lookup(&mut self, _rand: &[u8; 8], _ediv: u16) -> Option<[u8; 16]> {
        self.bonded_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gatt::props;
    use ble_link::{AddressType, ConnectionParams};

    fn stack(addr_seed: u8, seed: u64) -> HostStack {
        let mut server = GattServer::new();
        server
            .service(Uuid::GAP_SERVICE)
            .characteristic(Uuid::DEVICE_NAME, props::READ, b"Dev".to_vec())
            .finish();
        HostStack::new(
            DeviceAddress::new([addr_seed; 6], AddressType::Public),
            server,
            SimRng::seed_from(seed),
        )
    }

    fn connect_pair(master: &mut HostStack, slave: &mut HostStack) {
        let params = ConnectionParams::typical(&mut SimRng::seed_from(9), 36);
        master.on_connected(
            Role::Master,
            &params,
            DeviceAddress::new([0xB0; 6], AddressType::Public),
        );
        slave.on_connected(
            Role::Slave,
            &params,
            DeviceAddress::new([0xA0; 6], AddressType::Public),
        );
    }

    /// Shuttles LL PDUs between two stacks until both are idle.
    fn pump(a: &mut HostStack, b: &mut HostStack) {
        let mut p = Vec::new();
        for _ in 0..100 {
            let mut progressed = false;
            while let Some(llid) = a.poll_outgoing(&mut p) {
                b.on_data(llid, &p);
                progressed = true;
            }
            while let Some(llid) = b.poll_outgoing(&mut p) {
                a.on_data(llid, &p);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    #[test]
    fn read_roundtrip_through_both_stacks() {
        let mut master = stack(0xA0, 1);
        let mut slave = stack(0xB0, 2);
        connect_pair(&mut master, &mut slave);
        let name_handle = slave.server().handle_of(Uuid::DEVICE_NAME).unwrap();
        master.read(name_handle);
        pump(&mut master, &mut slave);
        let events: Vec<HostEvent> = std::iter::from_fn(|| master.poll_event()).collect();
        assert!(events.contains(&HostEvent::ReadResponse {
            value: b"Dev".to_vec()
        }));
        let slave_events: Vec<HostEvent> = std::iter::from_fn(|| slave.poll_event()).collect();
        assert!(slave_events.contains(&HostEvent::ReadByPeer {
            handle: name_handle
        }));
    }

    #[test]
    fn write_roundtrip_and_event() {
        let mut master = stack(0xA0, 3);
        let mut slave = stack(0xB0, 4);
        // Give the slave a writable characteristic.
        let control = slave
            .server_mut()
            .service(Uuid::short(0xFFE0))
            .characteristic(Uuid::short(0xFFE1), props::WRITE, vec![0])
            .finish();
        connect_pair(&mut master, &mut slave);
        master.write(control, vec![0x55, 0x10]);
        pump(&mut master, &mut slave);
        let m: Vec<_> = std::iter::from_fn(|| master.poll_event()).collect();
        let s: Vec<_> = std::iter::from_fn(|| slave.poll_event()).collect();
        assert!(m.contains(&HostEvent::WriteConfirmed));
        assert!(s.contains(&HostEvent::Written {
            handle: control,
            value: vec![0x55, 0x10].into(),
            acknowledged: true
        }));
    }

    #[test]
    fn service_discovery_roundtrip() {
        let mut master = stack(0xA0, 5);
        let mut slave = stack(0xB0, 6);
        connect_pair(&mut master, &mut slave);
        master.discover_services();
        pump(&mut master, &mut slave);
        let m: Vec<_> = std::iter::from_fn(|| master.poll_event()).collect();
        assert!(m
            .iter()
            .any(|e| matches!(e, HostEvent::ServicesDiscovered { .. })));
    }

    #[test]
    fn pairing_over_the_stacks_yields_matching_keys_and_action() {
        let mut master = stack(0xA0, 7);
        let mut slave = stack(0xB0, 8);
        connect_pair(&mut master, &mut slave);
        master.start_pairing();
        pump(&mut master, &mut slave);
        let mk = master.bonded_key().expect("master key");
        let sk = slave.bonded_key().expect("slave key");
        assert_eq!(mk, sk);
        let action = master.take_action().expect("encryption action queued");
        assert!(matches!(action, SecurityAction::StartEncryption { key, .. } if key == mk));
        assert!(slave.take_action().is_none(), "slave does not initiate");
    }

    #[test]
    fn notification_path() {
        let mut master = stack(0xA0, 9);
        let mut slave = stack(0xB0, 10);
        connect_pair(&mut master, &mut slave);
        slave.notify(0x0042, b"SMS!");
        pump(&mut master, &mut slave);
        let m: Vec<_> = std::iter::from_fn(|| master.poll_event()).collect();
        assert!(m.contains(&HostEvent::Notification {
            handle: 0x0042,
            value: b"SMS!".to_vec().into()
        }));
    }

    #[test]
    fn write_command_fast_path_applies_and_recycles_pool_buffers() {
        let mut master = stack(0xA0, 21);
        let mut slave = stack(0xB0, 22);
        let control = slave
            .server_mut()
            .service(Uuid::short(0xFFE0))
            .characteristic(Uuid::short(0xFFE1), props::WRITE, vec![0])
            .finish();
        connect_pair(&mut master, &mut slave);
        let _ = master.poll_event();
        let _ = slave.poll_event();
        let idle_free = master.pool().stats().free;
        for i in 0..10u8 {
            master.write_command(control, &[0x40, i]);
            pump(&mut master, &mut slave);
            assert_eq!(
                slave.poll_event(),
                Some(HostEvent::Written {
                    handle: control,
                    value: vec![0x40, i].into(),
                    acknowledged: false
                })
            );
            assert_eq!(slave.server().value(control), Some(&[0x40, i][..]));
        }
        // Every fragment buffer went back: the pool is full again and no
        // allocation was ever denied.
        assert_eq!(master.pool().stats().free, idle_free);
        assert_eq!(master.pool().stats().total_denials(), 0);
        assert_eq!(slave.pool().stats().total_denials(), 0);
    }

    #[test]
    fn disconnect_clears_transient_state_but_keeps_bond() {
        let mut master = stack(0xA0, 11);
        let mut slave = stack(0xB0, 12);
        connect_pair(&mut master, &mut slave);
        master.start_pairing();
        pump(&mut master, &mut slave);
        let key = master.bonded_key().unwrap();
        master.on_disconnected(0x13);
        assert!(master.bonded_key() == Some(key), "bond survives disconnect");
        assert!(!master.is_encrypted());
        assert!(master.role().is_none());
    }

    #[test]
    fn mtu_exchange_event() {
        let mut master = stack(0xA0, 13);
        let mut slave = stack(0xB0, 14);
        connect_pair(&mut master, &mut slave);
        master.exchange_mtu(185);
        pump(&mut master, &mut slave);
        let m: Vec<_> = std::iter::from_fn(|| master.poll_event()).collect();
        assert!(m.contains(&HostEvent::MtuExchanged(185)));
    }

    #[test]
    fn garbage_sdu_is_ignored() {
        let mut slave = stack(0xB0, 15);
        slave.on_connected(
            Role::Slave,
            &ConnectionParams::typical(&mut SimRng::seed_from(1), 36),
            DeviceAddress::new([0xA0; 6], AddressType::Public),
        );
        // Garbage ATT opcode over a well-formed L2CAP frame.
        for (llid, p) in l2cap::fragment(CID_ATT, &[0xFF, 1, 2, 3], DEFAULT_LL_PAYLOAD) {
            slave.on_data(llid, &p);
        }
        let _ = slave.poll_event(); // Connected event
        assert!(slave.poll_event().is_none());
        assert!(!slave.has_outgoing());
    }
}
