//! Textual congestion heatmaps over the topology grid.
//!
//! Two maps are rendered from the same per-site sums: **busy** (service
//! time absorbed per site — how hard each handshake stage works) and
//! **wait** (queueing time in front of each site — where flits stall).
//! The geometry is inferred from the sites themselves: MoT sites place
//! each node by `(stage level, tree)` so the map reads top-to-bottom
//! along the flit pipeline — fanout root to leaves, then fanin leaves
//! back to the roots — with one column per endpoint tree; mesh sites
//! place routers on their `side x side` grid. A trace with neither falls
//! back to one row per stage.
//!
//! Intensity uses a ten-step ASCII ramp normalized to the hottest cell
//! of each map, so the output is a relative picture, not a scale.

use asynoc_telemetry::{HashMap, Site};

use crate::attribution::PerSite;

const RAMP: &[u8] = b" .:-=+*#%@";

/// The two rendered congestion maps.
#[derive(Clone, Debug)]
pub struct Heatmap {
    /// Service-time map (channel busy).
    pub busy: String,
    /// Queueing-time map (wait in front of the site).
    pub wait: String,
}

impl Heatmap {
    /// Renders both maps from the per-site sums.
    pub(crate) fn render(per_site: &PerSite) -> Heatmap {
        Heatmap {
            busy: render_map(&per_site.totals(|stat| stat.service_ps)),
            wait: render_map(&per_site.totals(|stat| stat.blocked_ps)),
        }
    }
}

/// A row of cells plus its label.
struct Row {
    label: String,
    cells: Vec<u64>,
}

fn render_map(parsed: &[(Site, u64)]) -> String {
    let rows = if parsed.iter().any(|(s, _)| matches!(s, Site::Router(_))) {
        mesh_rows(parsed)
    } else if parsed
        .iter()
        .any(|(s, _)| matches!(s, Site::Fanout { .. } | Site::Fanin { .. }))
    {
        mot_rows(parsed)
    } else {
        generic_rows(parsed)
    };

    let max = rows
        .iter()
        .flat_map(|r| r.cells.iter().copied())
        .max()
        .unwrap_or(0);
    let width = rows.iter().map(|r| r.label.len()).max().unwrap_or(0);
    let mut out = String::new();
    for row in rows {
        out.push_str(&format!("{:>width$} |", row.label));
        for cell in row.cells {
            out.push(shade(cell, max));
        }
        out.push_str("|\n");
    }
    out
}

fn shade(value: u64, max: u64) -> char {
    if max == 0 {
        return RAMP[0] as char;
    }
    let step = ((value as f64 / max as f64) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[step.min(RAMP.len() - 1)] as char
}

/// MoT: one column per endpoint tree; rows run down the pipeline —
/// fanout levels root-first, then fanin levels leaf-first (so adjacent
/// rows are adjacent stages).
fn mot_rows(parsed: &[(Site, u64)]) -> Vec<Row> {
    let mut n = 0usize;
    let mut fanout_levels = 0u32;
    let mut fanin_levels = 0u32;
    for (site, _) in parsed {
        match *site {
            Site::Fanout { tree, level, .. } => {
                n = n.max(tree + 1);
                fanout_levels = fanout_levels.max(level + 1);
            }
            Site::Fanin { tree, level, .. } => {
                n = n.max(tree + 1);
                fanin_levels = fanin_levels.max(level + 1);
            }
            Site::Source(i) | Site::Sink(i) => n = n.max(i + 1),
            _ => {}
        }
    }

    let mut rows: Vec<Row> = Vec::new();
    for level in 0..fanout_levels {
        rows.push(Row {
            label: format!("fo-L{level}"),
            cells: vec![0; n],
        });
    }
    for level in (0..fanin_levels).rev() {
        rows.push(Row {
            label: format!("fi-L{level}"),
            cells: vec![0; n],
        });
    }
    for (site, value) in parsed {
        let (row, col) = match *site {
            Site::Fanout { tree, level, .. } => (level as usize, tree),
            Site::Fanin { tree, level, .. } => (
                fanout_levels as usize + (fanin_levels - 1 - level) as usize,
                tree,
            ),
            _ => continue, // endpoints carry no handshake occupancy
        };
        if let Some(r) = rows.get_mut(row) {
            if let Some(cell) = r.cells.get_mut(col) {
                *cell += value;
            }
        }
    }
    rows
}

/// Mesh: routers on their `side x side` grid, side inferred from the
/// largest router id.
fn mesh_rows(parsed: &[(Site, u64)]) -> Vec<Row> {
    let max_id = parsed
        .iter()
        .filter_map(|(s, _)| match s {
            Site::Router(i) => Some(*i),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let side = ((max_id + 1) as f64).sqrt().ceil() as usize;
    let side = side.max(1);
    let mut rows: Vec<Row> = (0..side)
        .map(|r| Row {
            label: format!("row{r}"),
            cells: vec![0; side],
        })
        .collect();
    for (site, value) in parsed {
        if let Site::Router(id) = *site {
            rows[id / side].cells[id % side] += value;
        }
    }
    rows
}

/// Neither fabric's nodes: one row per stage, one aggregate cell.
fn generic_rows(parsed: &[(Site, u64)]) -> Vec<Row> {
    let mut by_key: HashMap<String, u64> = HashMap::default();
    for (site, value) in parsed {
        *by_key.entry(site.stage().to_string()).or_default() += value;
    }
    let mut rows: Vec<Row> = by_key
        .into_iter()
        .map(|(label, v)| Row {
            label,
            cells: vec![v],
        })
        .collect();
    rows.sort_by(|a, b| a.label.cmp(&b.label));
    rows
}

#[cfg(test)]
mod tests {
    use asynoc_telemetry::TraceRecord;

    fn record(t_ps: u64, site: &str, action: &str, busy_ps: u64) -> TraceRecord {
        TraceRecord {
            t_ps,
            packet: 1,
            logical: 1,
            flit: 0,
            src: 0,
            dests: 1,
            created_ps: 0,
            site: site.parse().expect(site),
            action: action.parse().expect(action),
            detail: asynoc_telemetry::Detail::None,
            copies: 1,
            busy_ps,
        }
    }

    #[test]
    fn mot_map_orders_rows_along_the_pipeline() {
        let records = vec![
            record(10, "src0", "inject", 0),
            record(40, "fo[s0:0.0]", "forward", 30),
            record(80, "fo[s0:1.1]", "forward", 30),
            record(160, "fi[d3:1.1]", "forward", 30),
            record(200, "fi[d3:0.0]", "forward", 30),
            record(210, "D3", "deliver", 0),
        ];
        let analysis = crate::Analysis::build(None, records, 10);
        let map = analysis.heatmap();
        let lines: Vec<&str> = map.busy.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].trim_start().starts_with("fo-L0"));
        assert!(lines[1].trim_start().starts_with("fo-L1"));
        assert!(lines[2].trim_start().starts_with("fi-L1"));
        assert!(lines[3].trim_start().starts_with("fi-L0"));
        // Four columns (trees 0..=3) between the pipes.
        let cells = lines[0].split('|').nth(1).unwrap();
        assert_eq!(cells.len(), 4);
        // The hottest fanout cell is non-blank.
        assert_ne!(cells.chars().next().unwrap(), ' ');
    }

    #[test]
    fn mesh_map_lays_routers_on_the_grid() {
        let records = vec![
            record(10, "src0", "inject", 0),
            record(40, "r0", "forward", 30),
            record(80, "r1", "forward", 30),
            record(120, "r3", "forward", 60),
            record(130, "D3", "deliver", 0),
        ];
        let analysis = crate::Analysis::build(None, records, 10);
        let map = analysis.heatmap();
        let lines: Vec<&str> = map.busy.lines().collect();
        assert_eq!(lines.len(), 2, "max router id 3 -> 2x2 grid");
        // r3 sits at row 1, col 1 and is the hottest cell.
        let bottom = lines[1].split('|').nth(1).unwrap();
        assert_eq!(bottom.chars().nth(1).unwrap(), '@');
    }

    #[test]
    fn a_trace_of_endpoints_and_fault_sites_falls_back_to_stage_rows() {
        let records = vec![
            record(10, "src0", "inject", 0),
            record(40, "ch1", "fault", 30),
        ];
        let analysis = crate::Analysis::build(None, records, 10);
        let map = analysis.heatmap();
        let labels: Vec<&str> = map
            .busy
            .lines()
            .map(|l| l.split('|').next().unwrap())
            .collect();
        assert_eq!(labels, [" other ", "source "]);
    }
}
