//! The logical disk service: overwritable blocks on an append-only log.
//!
//! The paper lists "a logical disk service that provides a disk
//! abstraction that hides the append-only log, allowing higher-level
//! services and applications to overwrite the blocks they store" (§2.2,
//! citing De Jonge et al.). A [`LogicalDisk`] maps logical block numbers
//! to log addresses; a write appends a fresh block (its creation record
//! names the logical block number), deletes the superseded copy, and
//! updates the map. Crash recovery rebuilds the map from the checkpoint
//! plus replayed block creations; cleaning updates it through
//! [`Service::block_moved`].

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use swarm_log::{Entry, Log, ReplayEntry};
use swarm_types::{
    BlockAddr, ByteReader, ByteWriter, Bytes, Decode, Encode, Result, ServiceId, SwarmError,
};

use crate::service::Service;

/// An overwritable array of logical blocks stored in the Swarm log.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use swarm_services::LogicalDisk;
/// use swarm_types::ServiceId;
///
/// # fn log() -> Arc<swarm_log::Log> { unimplemented!() }
/// let disk = LogicalDisk::new(ServiceId::new(3), log());
/// disk.write(0, b"first block")?;
/// disk.write(0, b"overwritten")?;  // same logical block
/// disk.flush()?;
/// assert_eq!(disk.read(0)?.as_deref(), Some(b"overwritten".as_slice()));
/// # Ok::<(), swarm_types::SwarmError>(())
/// ```
pub struct LogicalDisk {
    id: ServiceId,
    log: Arc<Log>,
    /// Logical block number → address of its live copy.
    map: Mutex<BTreeMap<u64, BlockAddr>>,
}

impl std::fmt::Debug for LogicalDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogicalDisk")
            .field("id", &self.id)
            .field("blocks", &self.map.lock().len())
            .finish()
    }
}

fn create_info(lba: u64) -> [u8; 8] {
    lba.to_le_bytes()
}

fn parse_create(create: &[u8]) -> Result<u64> {
    let bytes: [u8; 8] = create
        .try_into()
        .map_err(|_| SwarmError::corrupt("logical disk creation record must be 8 bytes"))?;
    Ok(u64::from_le_bytes(bytes))
}

impl LogicalDisk {
    /// Creates an empty logical disk writing through `log` as service
    /// `id`.
    pub fn new(id: ServiceId, log: Arc<Log>) -> LogicalDisk {
        LogicalDisk {
            id,
            log,
            map: Mutex::new(BTreeMap::new()),
        }
    }

    /// Writes (or overwrites) logical block `lba`.
    ///
    /// # Errors
    ///
    /// Propagates log append failures.
    pub fn write(&self, lba: u64, data: &[u8]) -> Result<()> {
        let addr = self.log.append_block(self.id, &create_info(lba), data)?;
        let old = self.map.lock().insert(lba, addr);
        if let Some(old) = old {
            // The superseded copy is now dead; tell the cleaner via a
            // delete record.
            self.log.delete_block(self.id, old)?;
        }
        Ok(())
    }

    /// Reads logical block `lba`; `None` if never written (or trimmed).
    ///
    /// # Errors
    ///
    /// Propagates log read failures (the mapped block should always be
    /// readable, via reconstruction if needed).
    pub fn read(&self, lba: u64) -> Result<Option<Bytes>> {
        let addr = { self.map.lock().get(&lba).copied() };
        match addr {
            None => Ok(None),
            Some(addr) => Ok(Some(self.log.read(addr)?)),
        }
    }

    /// Discards logical block `lba` (like TRIM).
    ///
    /// # Errors
    ///
    /// Propagates log append failures.
    pub fn trim(&self, lba: u64) -> Result<()> {
        let old = self.map.lock().remove(&lba);
        if let Some(old) = old {
            self.log.delete_block(self.id, old)?;
        }
        Ok(())
    }

    /// Number of live logical blocks.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// `true` if no logical block is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flushes underlying log writes to the servers.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn flush(&self) -> Result<()> {
        self.log.flush()
    }

    /// Serializes the lba→address map and writes it as a checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates log failures.
    pub fn checkpoint(&self) -> Result<()> {
        let payload = {
            let map = self.map.lock();
            let mut w = ByteWriter::new();
            w.put_u64(map.len() as u64);
            for (lba, addr) in map.iter() {
                w.put_u64(*lba);
                addr.encode(&mut w);
            }
            w.into_bytes()
        };
        self.log.checkpoint(self.id, &payload)?;
        Ok(())
    }

    fn load_checkpoint(&self, data: &[u8]) -> Result<()> {
        let mut r = ByteReader::new(data);
        let n = r.get_u64()? as usize;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let lba = r.get_u64()?;
            let addr = BlockAddr::decode(&mut r)?;
            map.insert(lba, addr);
        }
        if !r.is_empty() {
            return Err(SwarmError::corrupt(
                "trailing bytes in logical disk checkpoint",
            ));
        }
        *self.map.lock() = map;
        Ok(())
    }
}

/// The [`Service`] face of a [`LogicalDisk`] — register this with the
/// [`crate::ServiceStack`] so recovery and cleaning reach the disk.
pub struct LogicalDiskService {
    disk: Arc<LogicalDisk>,
}

impl LogicalDiskService {
    /// Wraps a disk for stack registration.
    pub fn new(disk: Arc<LogicalDisk>) -> Self {
        LogicalDiskService { disk }
    }
}

impl Service for LogicalDiskService {
    fn id(&self) -> ServiceId {
        self.disk.id
    }

    fn name(&self) -> &str {
        "logical-disk"
    }

    fn restore_checkpoint(&mut self, data: &[u8]) -> Result<()> {
        self.disk.load_checkpoint(data)
    }

    fn replay(&mut self, entry: &ReplayEntry) -> Result<()> {
        match &entry.entry {
            Entry::Block { create, .. } => {
                let lba = parse_create(create)?;
                let addr = entry
                    .block_addr
                    .ok_or_else(|| SwarmError::corrupt("block entry without address"))?;
                self.disk.map.lock().insert(lba, addr);
            }
            Entry::Delete { addr, .. } => {
                // A delete record marks the *old* copy dead. Only remove
                // the mapping if it still points at that copy (an
                // overwrite's delete must not kill the new mapping).
                self.disk.map.lock().retain(|_, v| v != addr);
            }
            Entry::Record { .. } => {} // logical disk writes no custom records
            Entry::Checkpoint { .. } => {
                return Err(SwarmError::corrupt("checkpoint routed to replay"))
            }
        }
        Ok(())
    }

    fn block_moved(&mut self, old: BlockAddr, new: BlockAddr, create: &[u8]) -> Result<()> {
        let lba = parse_create(create)?;
        let mut map = self.disk.map.lock();
        match map.get(&lba) {
            Some(current) if *current == old => {
                map.insert(lba, new);
                Ok(())
            }
            // The block was overwritten since the cleaner read it; the
            // moved copy is already dead. Nothing to patch.
            _ => Ok(()),
        }
    }

    fn write_checkpoint(&mut self, _log: &Log) -> Result<()> {
        self.disk.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_log::{recover, LogConfig};
    use swarm_net::MemTransport;
    use swarm_server::{MemStore, StorageServer};
    use swarm_types::{ClientId, ServerId};

    fn cluster(n: u32) -> Arc<MemTransport> {
        let transport = Arc::new(MemTransport::new());
        for i in 0..n {
            let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
            transport.register(ServerId::new(i), srv);
        }
        transport
    }

    fn config(servers: u32) -> LogConfig {
        LogConfig::new(ClientId::new(1), (0..servers).map(ServerId::new).collect())
            .unwrap()
            .fragment_size(4096)
    }

    const DISK_SVC: ServiceId = ServiceId::new(3);

    #[test]
    fn write_read_overwrite() {
        let transport = cluster(2);
        let log = Arc::new(Log::create(transport, config(2)).unwrap());
        let disk = LogicalDisk::new(DISK_SVC, log);
        disk.write(5, b"v1").unwrap();
        disk.write(5, b"v2").unwrap();
        disk.write(9, b"other").unwrap();
        disk.flush().unwrap();
        assert_eq!(disk.read(5).unwrap().unwrap(), b"v2");
        assert_eq!(disk.read(9).unwrap().unwrap(), b"other");
        assert_eq!(disk.read(100).unwrap(), None);
        assert_eq!(disk.len(), 2);
    }

    #[test]
    fn trim_removes_block() {
        let transport = cluster(2);
        let log = Arc::new(Log::create(transport, config(2)).unwrap());
        let disk = LogicalDisk::new(DISK_SVC, log);
        disk.write(1, b"x").unwrap();
        disk.trim(1).unwrap();
        disk.flush().unwrap();
        assert_eq!(disk.read(1).unwrap(), None);
        assert!(disk.is_empty());
    }

    #[test]
    fn recovery_from_checkpoint_and_records() {
        let transport = cluster(2);
        {
            let log = Arc::new(Log::create(transport.clone(), config(2)).unwrap());
            let disk = LogicalDisk::new(DISK_SVC, log);
            disk.write(1, b"one-v1").unwrap();
            disk.write(2, b"two").unwrap();
            disk.checkpoint().unwrap();
            disk.write(1, b"one-v2").unwrap(); // after checkpoint
            disk.write(3, b"three").unwrap();
            disk.trim(2).unwrap();
            disk.flush().unwrap();
            // crash
        }
        let (log, replay) = recover(transport, config(2), &[DISK_SVC]).unwrap();
        let log = Arc::new(log);
        let disk = Arc::new(LogicalDisk::new(DISK_SVC, log.clone()));
        let mut svc = LogicalDiskService::new(disk.clone());
        if let Some(data) = replay.checkpoint_data(DISK_SVC) {
            svc.restore_checkpoint(data).unwrap();
        }
        for e in replay.records_for(DISK_SVC) {
            svc.replay(e).unwrap();
        }
        assert_eq!(disk.read(1).unwrap().unwrap(), b"one-v2");
        assert_eq!(disk.read(2).unwrap(), None, "trimmed after checkpoint");
        assert_eq!(disk.read(3).unwrap().unwrap(), b"three");
    }

    #[test]
    fn recovery_without_checkpoint() {
        let transport = cluster(2);
        {
            let log = Arc::new(Log::create(transport.clone(), config(2)).unwrap());
            let disk = LogicalDisk::new(DISK_SVC, log);
            disk.write(7, b"seven").unwrap();
            disk.flush().unwrap();
        }
        let (log, replay) = recover(transport, config(2), &[DISK_SVC]).unwrap();
        let disk = Arc::new(LogicalDisk::new(DISK_SVC, Arc::new(log)));
        let mut svc = LogicalDiskService::new(disk.clone());
        for e in replay.records_for(DISK_SVC) {
            svc.replay(e).unwrap();
        }
        assert_eq!(disk.read(7).unwrap().unwrap(), b"seven");
    }

    #[test]
    fn block_moved_patches_only_current_mapping() {
        let transport = cluster(2);
        let log = Arc::new(Log::create(transport, config(2)).unwrap());
        let disk = Arc::new(LogicalDisk::new(DISK_SVC, log.clone()));
        disk.write(4, b"payload").unwrap();
        disk.flush().unwrap();
        let old = *disk.map.lock().get(&4).unwrap();
        let new_addr = log
            .append_block(DISK_SVC, &create_info(4), b"payload")
            .unwrap();
        log.flush().unwrap();
        let mut svc = LogicalDiskService::new(disk.clone());
        svc.block_moved(old, new_addr, &create_info(4)).unwrap();
        assert_eq!(*disk.map.lock().get(&4).unwrap(), new_addr);
        // A stale move (old addr no longer current) is a no-op.
        svc.block_moved(old, new_addr, &create_info(4)).unwrap();
        assert_eq!(*disk.map.lock().get(&4).unwrap(), new_addr);
    }

    #[test]
    fn acts_like_an_array_under_random_ops() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let transport = cluster(3);
        let log = Arc::new(Log::create(transport, config(3)).unwrap());
        let disk = LogicalDisk::new(DISK_SVC, log);
        let mut model: std::collections::HashMap<u64, Vec<u8>> = Default::default();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..300 {
            let lba = rng.gen_range(0..20);
            match rng.gen_range(0..3) {
                0 | 1 => {
                    let data: Vec<u8> = (0..rng.gen_range(1..200)).map(|_| rng.gen()).collect();
                    disk.write(lba, &data).unwrap();
                    model.insert(lba, data);
                }
                _ => {
                    disk.trim(lba).unwrap();
                    model.remove(&lba);
                }
            }
        }
        disk.flush().unwrap();
        for lba in 0..20 {
            assert_eq!(
                disk.read(lba).unwrap().map(|b| b.to_vec()),
                model.get(&lba).cloned(),
                "lba {lba}"
            );
        }
    }
}
