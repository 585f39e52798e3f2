//! Network traffic accounting.
//!
//! Every datagram handed to the network is counted under its
//! [`Payload::class`](crate::Payload::class) label. The VoD experiments use
//! this to verify the paper's claim that group-communication control traffic
//! consumes less than one thousandth of the bandwidth used for video.

use std::fmt;

/// Counters for one traffic class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Datagrams submitted to the network.
    pub sent_msgs: u64,
    /// Bytes submitted to the network (per [`Payload::size_bytes`](crate::Payload::size_bytes)).
    pub sent_bytes: u64,
    /// Datagrams delivered to a live process.
    pub delivered_msgs: u64,
    /// Datagrams dropped by the random loss model.
    pub dropped_loss: u64,
    /// Datagrams dropped because source and destination were partitioned.
    pub dropped_partition: u64,
    /// Datagrams dropped because the destination node was crashed or absent.
    pub dropped_dead: u64,
    /// Extra copies created by the duplication model.
    pub duplicated: u64,
}

/// Per-class traffic counters for a whole simulation run.
///
/// A run has a handful of classes, each named by one `&'static str`
/// literal, so the table is a small vector kept in name order and a hot
/// lookup is a scan comparing string *addresses*; contents are compared
/// only when no address matches (a new class, a non-`'static` query, or
/// the same name reaching us from two literals).
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    classes: Vec<(&'static str, ClassStats)>,
}

impl NetStats {
    /// Creates an empty set of counters.
    pub fn new() -> Self {
        NetStats::default()
    }

    pub(crate) fn class_mut(&mut self, class: &'static str) -> &mut ClassStats {
        let same_literal = |(name, _): &(&'static str, ClassStats)| {
            std::ptr::eq(name.as_ptr(), class.as_ptr()) && name.len() == class.len()
        };
        let index = match self.classes.iter().position(same_literal) {
            Some(index) => index,
            None => match self.classes.binary_search_by(|(name, _)| name.cmp(&class)) {
                Ok(index) => index,
                Err(index) => {
                    self.classes.insert(index, (class, ClassStats::default()));
                    index
                }
            },
        };
        &mut self.classes[index].1
    }

    /// Counters for `class`, or zeroed counters if the class never sent.
    pub fn class(&self, class: &str) -> ClassStats {
        self.classes
            .binary_search_by(|(name, _)| (*name).cmp(class))
            .map_or_else(|_| ClassStats::default(), |index| self.classes[index].1)
    }

    /// Iterates over `(class, counters)` pairs in class-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &ClassStats)> {
        self.classes.iter().map(|(k, v)| (*k, v))
    }

    /// Total bytes submitted across all classes.
    pub fn total_sent_bytes(&self) -> u64 {
        self.classes.iter().map(|(_, c)| c.sent_bytes).sum()
    }

    /// Total datagrams submitted across all classes.
    pub fn total_sent_msgs(&self) -> u64 {
        self.classes.iter().map(|(_, c)| c.sent_msgs).sum()
    }

    /// Renders all counters as CSV, one row per class, with the drop count
    /// broken down per [`DropReason`](crate::DropReason) (`dropped_loss`,
    /// `dropped_partition`, `dropped_dead`) so experiment output can
    /// distinguish random loss from partitions from dead destinations.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "class,sent_msgs,sent_bytes,delivered_msgs,\
             dropped_loss,dropped_partition,dropped_dead,duplicated\n",
        );
        for (class, c) in self.iter() {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                class,
                c.sent_msgs,
                c.sent_bytes,
                c.delivered_msgs,
                c.dropped_loss,
                c.dropped_partition,
                c.dropped_dead,
                c.duplicated
            ));
        }
        out
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>10} {:>14} {:>10} {:>8} {:>8} {:>8}",
            "class", "sent", "bytes", "delivered", "lost", "part", "dead"
        )?;
        for (class, c) in self.iter() {
            writeln!(
                f,
                "{:<16} {:>10} {:>14} {:>10} {:>8} {:>8} {:>8}",
                class,
                c.sent_msgs,
                c.sent_bytes,
                c.delivered_msgs,
                c.dropped_loss,
                c.dropped_partition,
                c.dropped_dead
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_class_is_zero() {
        let stats = NetStats::new();
        assert_eq!(stats.class("video"), ClassStats::default());
        assert_eq!(stats.total_sent_bytes(), 0);
    }

    #[test]
    fn class_mut_accumulates() {
        let mut stats = NetStats::new();
        stats.class_mut("video").sent_msgs += 2;
        stats.class_mut("video").sent_bytes += 100;
        stats.class_mut("gcs").sent_bytes += 5;
        assert_eq!(stats.class("video").sent_msgs, 2);
        assert_eq!(stats.total_sent_bytes(), 105);
        assert_eq!(stats.total_sent_msgs(), 2);
    }

    #[test]
    fn csv_breaks_down_drop_reasons() {
        let mut stats = NetStats::new();
        let video = stats.class_mut("video");
        video.sent_msgs = 10;
        video.sent_bytes = 1000;
        video.delivered_msgs = 6;
        video.dropped_loss = 1;
        video.dropped_partition = 2;
        video.dropped_dead = 1;
        video.duplicated = 3;
        let csv = stats.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("dropped_loss,dropped_partition,dropped_dead"));
        assert_eq!(lines.next().unwrap(), "video,10,1000,6,1,2,1,3");
    }

    #[test]
    fn display_lists_classes_in_order() {
        let mut stats = NetStats::new();
        stats.class_mut("video").sent_msgs = 1;
        stats.class_mut("gcs").sent_msgs = 1;
        stats.class_mut("sync").sent_msgs = 1;
        let text = stats.to_string();
        let pos = |class: &str| text.find(class).unwrap();
        assert!(
            pos("gcs") < pos("sync") && pos("sync") < pos("video"),
            "classes should print sorted:\n{text}"
        );
        let csv = stats.to_csv();
        let names: Vec<&str> = csv
            .lines()
            .skip(1)
            .map(|row| row.split(',').next().unwrap())
            .collect();
        assert_eq!(names, ["gcs", "sync", "video"]);
    }

    #[test]
    fn lookups_compare_contents_when_addresses_differ() {
        let mut stats = NetStats::new();
        stats.class_mut("video").sent_msgs = 3;
        // A query string built at run time shares no address with the
        // literal the class was interned under.
        let query = String::from("vid") + "eo";
        assert_eq!(stats.class(&query).sent_msgs, 3);
        // The same name from a second `'static` string lands in the same
        // row, not a duplicate.
        let leaked: &'static str = Box::leak(query.into_boxed_str());
        stats.class_mut(leaked).sent_msgs += 1;
        assert_eq!(stats.class("video").sent_msgs, 4);
        assert_eq!(stats.iter().count(), 1);
    }
}
