//! What the GM and MX drivers share besides the pacing seam
//! ([`crate::pace`]): the message header both carry on the wire, the
//! completion event each endpoint queues, and the counters of the recycled
//! per-operation scratch buffers.

use bytes::Bytes;

use crate::error::NetError;
use crate::transport::{Endpoint, TransportEvent};

/// Pack a message header into `Packet::meta`: destination and source
/// endpoint indices, match tag, message id, and the chunk's offset within
/// the message's `total` bytes (offset and total are 32-bit on the wire).
pub fn pack_msg_meta(
    dst: u32,
    src: u32,
    tag: u64,
    msg_id: u64,
    offset: u64,
    total: u64,
) -> [u64; 4] {
    [
        (dst as u64) | ((src as u64) << 32),
        tag,
        msg_id,
        (offset << 32) | (total & 0xFFFF_FFFF),
    ]
}

/// A message header unpacked from `Packet::meta` ([`pack_msg_meta`]), with
/// the endpoint indices typed as the driver's `Id`.
pub struct MsgMeta<Id> {
    pub dst: Id,
    pub src: Id,
    pub tag: u64,
    pub msg_id: u64,
    pub offset: u64,
    pub total: u64,
}

impl<Id> MsgMeta<Id> {
    pub fn unpack(meta: &[u64; 4], id: impl Fn(u32) -> Id) -> Self {
        MsgMeta {
            dst: id((meta[0] & 0xFFFF_FFFF) as u32),
            src: id((meta[0] >> 32) as u32),
            tag: meta[1],
            msg_id: meta[2],
            offset: meta[3] >> 32,
            total: meta[3] & 0xFFFF_FFFF,
        }
    }
}

/// Completion events a driver pushes onto an endpoint's event queue. `Id`
/// names the driver's endpoints (a GM port, an MX endpoint); the composed
/// world lifts each into a [`TransportEvent`] with
/// [`DriverEvent::into_transport`].
#[derive(Clone, Debug)]
pub enum DriverEvent<Id> {
    /// A send completed locally (the buffer is reusable).
    SendDone { ctx: u64 },
    /// A message landed in a posted receive buffer.
    RecvDone {
        ctx: u64,
        tag: u64,
        len: u64,
        from: Id,
    },
    /// A message arrived with no matching receive and is delivered inline
    /// (the driver already charged the extra copy).
    Unexpected { tag: u64, data: Bytes, from: Id },
    /// A send the driver had parked in a tenant pacing lane failed at
    /// drain time (peer died, endpoint closed, policy shed it): no bytes
    /// left the node and no `SendDone` will arrive for `ctx`.
    SendFailed { ctx: u64, error: NetError },
}

impl<Id> DriverEvent<Id> {
    /// The transport-level form; `endpoint` names a sending peer.
    pub fn into_transport(self, endpoint: impl FnOnce(Id) -> Endpoint) -> TransportEvent {
        match self {
            DriverEvent::SendDone { ctx } => TransportEvent::SendDone { ctx },
            DriverEvent::SendFailed { ctx, error } => TransportEvent::SendFailed { ctx, error },
            DriverEvent::RecvDone {
                ctx,
                tag,
                len,
                from,
            } => TransportEvent::RecvDone {
                ctx,
                tag,
                len,
                from: endpoint(from),
            },
            DriverEvent::Unexpected { tag, data, from } => TransportEvent::Unexpected {
                tag,
                data,
                from: endpoint(from),
            },
        }
    }
}

/// Scratch-pool counters: steady state shows `uses` growing while `grows`
/// stays flat (see `tests/hotpath_alloc.rs`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScratchStats {
    /// Operations that borrowed scratch buffers.
    pub uses: u64,
    /// Borrows that had to grow a buffer (warm-up only, in steady state).
    pub grows: u64,
}

impl ScratchStats {
    /// Account one borrow whose capacity footprint went from `before` to
    /// `after`.
    pub fn note(&mut self, before: usize, after: usize) {
        self.uses += 1;
        if after > before {
            self.grows += 1;
        }
    }
}
