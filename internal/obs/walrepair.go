package obs

import "vsgm/internal/wal"

// PublishWALRepair adds the outcome of one state directory's repair pass
// (wal.Open runs one) to the vsgm_wal_repair_* series under the caller's
// labels — a membership server's id, a shard replica's shard and process.
// Counters accumulate over the opens a registry sees, the gauge holds the
// latest, and a pass that found nothing still publishes its zeros.
func (r *Registry) PublishWALRepair(rep *wal.Report, labels ...Label) {
	r.Counter("vsgm_wal_repair_damaged_ranges_total",
		"Undecodable byte ranges quarantined by the repair pass at store open.", labels...).Add(int64(rep.DamagedRanges()))
	r.Counter("vsgm_wal_repair_damaged_bytes_total",
		"Bytes those quarantined ranges covered.", labels...).Add(int64(rep.DamagedBytes()))
	r.Gauge("vsgm_wal_repair_records_recovered",
		"Records the repair pass at store open decoded across log and snapshot.", labels...).Set(int64(rep.RecordsRecovered()))
	r.Counter("vsgm_wal_repair_temps_swept_total",
		"Stale temp files removed at store open.", labels...).Add(int64(rep.TempsSwept))
}
