//! The **Sales** application (paper §6): "a private commercial dataset of
//! an ERP system with 13 tables, 0.62 billions tuples and 117 attributes
//! with four tasks: (a) CIN that cleans customer information; (b) CCN for
//! company names; (c) TPWT that detects/corrects prices of commodities
//! without tax, and (d) SClean for cleaning all the errors above."
//!
//! Synthetic shape:
//! * `Client` — customer info rows (several per entity), typos + nulls →
//!   **CIN**, plus TD on the `tier` attribute (stale tiers).
//! * `Firm` — company names with typos, ML dedup + FD repairs → **CCN**.
//! * `OrderLine` — `price_wot = price − tax` linear invariant, corrupted →
//!   **TPWT** (polynomial pipeline).
//! * `Item` / `ItemExt` — the e-commerce enrichment pair of §6: ER across
//!   the two tables via `MER`, MI pulling `mfg` from the external table.

use crate::inject::Injector;
use crate::namegen::{self, pick};
use crate::workload::{curated_rules, GenConfig, MlHint, Task, Workload};
use rock_data::{
    rng::StdRng, AttrId, AttrType, Database, DatabaseSchema, Eid, RelId, RelationSchema, Timestamp,
    Value,
};
use rock_kg::Graph;
use rock_ml::correlation::{CorrelationModel, ValuePredictor};
use rock_ml::pair::NgramPairModel;
use rock_ml::rank::{CurrencyConstraint, RankModel};
use rock_ml::ModelRegistry;
use std::sync::Arc;

pub mod rels {
    pub const CLIENT: u16 = 0;
    pub const FIRM: u16 = 1;
    pub const ORDER: u16 = 2;
    pub const ITEM: u16 = 3;
    pub const ITEM_EXT: u16 = 4;
}

pub mod client {
    pub const CID: u16 = 0;
    pub const NAME: u16 = 1;
    pub const CITY: u16 = 2;
    pub const TIER: u16 = 3;
}

pub mod firm {
    pub const FID: u16 = 0;
    pub const NAME: u16 = 1;
    pub const SECTOR: u16 = 2;
}

pub mod order {
    pub const OID: u16 = 0;
    pub const COM: u16 = 1;
    pub const PRICE: u16 = 2;
    pub const TAX: u16 = 3;
    pub const PRICE_WOT: u16 = 4;
}

pub mod item {
    pub const IID: u16 = 0;
    pub const NAME: u16 = 1;
    pub const CAT: u16 = 2;
    pub const MFG: u16 = 3;
}

const SECTORS: &[&str] = &["wholesale", "retail", "export", "services"];
const TIERS: &[&str] = &["bronze", "silver", "gold"];
const CATS: &[&str] = &["mobile", "sports", "computing", "home"];

fn schema() -> DatabaseSchema {
    DatabaseSchema::new(vec![
        RelationSchema::of(
            "Client",
            &[
                ("cid", AttrType::Str),
                ("name", AttrType::Str),
                ("city", AttrType::Str),
                ("tier", AttrType::Str),
            ],
        ),
        RelationSchema::of(
            "Firm",
            &[
                ("fid", AttrType::Str),
                ("name", AttrType::Str),
                ("sector", AttrType::Str),
            ],
        ),
        RelationSchema::of(
            "OrderLine",
            &[
                ("oid", AttrType::Str),
                ("com", AttrType::Str),
                ("price", AttrType::Float),
                ("tax", AttrType::Float),
                ("price_wot", AttrType::Float),
            ],
        ),
        RelationSchema::of(
            "Item",
            &[
                ("iid", AttrType::Str),
                ("name", AttrType::Str),
                ("cat", AttrType::Str),
                ("mfg", AttrType::Str),
            ],
        ),
        RelationSchema::of(
            "ItemExt",
            &[
                ("iid", AttrType::Str),
                ("name", AttrType::Str),
                ("cat", AttrType::Str),
                ("mfg", AttrType::Str),
            ],
        ),
    ])
}

/// Curated REE++s. Task tags: cin_*, ccn_*, tpwt_*, er_*/mi_* (shared).
const RULES: &str = "\
rule cin_er: Client(t) && Client(s) && t.cid = s.cid -> t.eid = s.eid
rule cin_name: Client(t) && Client(s) && t.cid = s.cid -> t.name = s.name
rule cin_city_mi: Client(t) && null(t.city) -> t.city = predict:Mccity(t[name,cid])
rule cin_td: Client(t) && Client(s) && t.cid = s.cid && t.tier = 'bronze' && s.tier = 'gold' -> t <=[tier] s
rule cin_td_rank: Client(t) && Client(s) && t.cid = s.cid && rank:Mtier(t, s, <=[tier]) -> t <=[tier] s
rule ccn_er_ml: Firm(t) && Firm(s) && ml:Mfirm(t[name], s[name]) && t.sector = s.sector -> t.eid = s.eid
rule ccn_name: Firm(t) && Firm(s) && t.fid = s.fid -> t.name = s.name
rule tpwt_red: OrderLine(t) && OrderLine(s) && t.oid = s.oid && t.price = s.price && t.tax = s.tax -> t.price_wot = s.price_wot
rule er_item: Item(t) && ItemExt(s) && t.cat = s.cat && ml:MER(t[name], s[name]) -> t.eid = s.eid
rule mi_cat: Item(t) && null(t.cat) -> t.cat = predict:Mcat(t[name])
rule mi_mfg: Item(t) && ItemExt(s) && t.eid = s.eid && null(t.mfg) -> t.mfg = s.mfg
";

/// Generate the Sales workload.
pub fn generate(cfg: &GenConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let schema = schema();
    let mut clean = Database::new(&schema);

    // Clients: 2–3 rows per entity; tier evolves (TD timestamps)
    let n_clients = cfg.rows / 3;
    {
        let r = clean.relation_mut(RelId(rels::CLIENT));
        for c in 0..n_clients {
            let cid = format!("CL{c:05}");
            let name = format!(
                "{} {}",
                pick(&mut rng, namegen::FIRST_NAMES),
                pick(&mut rng, namegen::LAST_NAMES)
            );
            let (city, _) = *pick(&mut rng, namegen::CITIES);
            let top_tier = rng.gen_range(0..TIERS.len());
            for (i, tier) in TIERS.iter().enumerate().take(top_tier + 1) {
                if let Ok(tid) = r.insert(
                    Eid(c as u32),
                    vec![
                        Value::str(&cid),
                        Value::str(&name),
                        Value::str(city),
                        Value::str(*tier),
                    ],
                ) {
                    r.set_timestamp(
                        tid,
                        AttrId(client::TIER),
                        Timestamp::from_days(100 + (c * 10 + i) as i32),
                    );
                }
            }
        }
    }

    // Firms: 2 rows per entity
    let n_firms = (cfg.rows / 6).max(4);
    {
        let r = clean.relation_mut(RelId(rels::FIRM));
        for f in 0..n_firms {
            let fid = format!("F{f:04}");
            let name = namegen::unique_company(f);
            let sector = *pick(&mut rng, SECTORS);
            for _ in 0..3 {
                r.insert(
                    Eid(f as u32),
                    vec![Value::str(&fid), Value::str(&name), Value::str(sector)],
                )
                .ok();
            }
        }
    }

    // OrderLines: price_wot = price − tax; two rows per oid
    {
        let r = clean.relation_mut(RelId(rels::ORDER));
        for o in 0..(cfg.rows / 2) {
            let (com, _, base) = *pick(&mut rng, namegen::COMMODITIES);
            let price = (base * rng.gen_range(0.8..1.2) * 100.0).round() / 100.0;
            let tax = (price * 0.13 * 100.0).round() / 100.0;
            for i in 0..3 {
                r.insert(
                    Eid(o as u32),
                    vec![
                        Value::str(format!("O{o:05}-{i}")),
                        Value::str(com),
                        Value::Float(price),
                        Value::Float(tax),
                        Value::Float(((price - tax) * 100.0).round() / 100.0),
                    ],
                )
                .ok();
            }
        }
    }

    // Item / ItemExt: aligned catalogs (ItemExt is the crawled external
    // source with slightly different names). The catalog is widened with
    // storage/color variants so the ER ↔ MI interaction has enough rows to
    // measure.
    let variants = ["64GB", "128GB", "256GB", "Pro", "Lite"];
    let n_items = namegen::COMMODITIES.len() * variants.len();
    {
        let mut ext_rows = Vec::new();
        {
            let r = clean.relation_mut(RelId(rels::ITEM));
            for i in 0..n_items {
                let (com, mfg, _) = namegen::COMMODITIES[i % namegen::COMMODITIES.len()];
                let var = variants[i / namegen::COMMODITIES.len()];
                let name = format!("{com} {var}");
                let cat = CATS[i % CATS.len()];
                r.insert(
                    Eid(i as u32),
                    vec![
                        Value::str(format!("I{i:03}")),
                        Value::str(&name),
                        Value::str(cat),
                        Value::str(mfg),
                    ],
                )
                .ok();
                ext_rows.push((
                    format!("X{i:03}"),
                    format!("{name} (official)"),
                    cat,
                    mfg,
                    i,
                ));
            }
        }
        let r = clean.relation_mut(RelId(rels::ITEM_EXT));
        for (xid, name, cat, mfg, i) in ext_rows {
            r.insert(
                Eid((1000 + i) as u32),
                vec![
                    Value::str(xid),
                    Value::str(name),
                    Value::str(cat),
                    Value::str(mfg),
                ],
            )
            .ok();
        }
    }

    // inject
    let mut dirty = clean.clone();
    let mut inj = Injector::new(cfg.seed ^ 0x5A1E5);
    let (cl, fi, or, it) = (
        RelId(rels::CLIENT),
        RelId(rels::FIRM),
        RelId(rels::ORDER),
        RelId(rels::ITEM),
    );
    // CIN: name typos, city nulls, stale tiers
    inj.corrupt_attr(&mut dirty, cl, AttrId(client::NAME), cfg.error_rate);
    inj.null_attr(&mut dirty, cl, AttrId(client::CITY), cfg.error_rate);
    inj.stale_attr(
        &mut dirty,
        cl,
        AttrId(client::TIER),
        cfg.error_rate / 2.0,
        &[Value::str("bronze")],
        Timestamp::from_days(5000),
    );
    // CCN: firm-name typos + duplicates
    inj.corrupt_attr(&mut dirty, fi, AttrId(firm::NAME), cfg.error_rate);
    inj.duplicate_tuples(&mut dirty, fi, cfg.error_rate / 2.0, &[AttrId(firm::NAME)]);
    // TPWT: corrupted + nulled price_wot (numeric — where T5-class models
    // struggle, per the paper)
    inj.corrupt_attr(&mut dirty, or, AttrId(order::PRICE_WOT), cfg.error_rate);
    inj.null_attr(
        &mut dirty,
        or,
        AttrId(order::PRICE_WOT),
        cfg.error_rate / 2.0,
    );
    // Item: missing manufactories imputed from ItemExt; for half of those
    // rows the category is *also* nulled, so the imputation requires the
    // chain MI (fill cat) → ER (align with ItemExt) → MI (pull mfg) —
    // the §4.2 interactions a single non-iterating pass cannot complete.
    inj.null_attr(&mut dirty, it, AttrId(item::MFG), 0.3);
    {
        let mfg_nulled: Vec<rock_data::TupleId> = inj
            .truth
            .nulled
            .keys()
            .filter(|c| c.rel == it && c.attr == AttrId(item::MFG))
            .map(|c| c.tid)
            .collect();
        let half: Vec<_> = mfg_nulled.iter().copied().step_by(2).collect();
        inj.null_cells(&mut dirty, it, &half, AttrId(item::CAT));
    }
    let mut truth = inj.truth;
    // Ground-truth ER pairs also include the Item ↔ ItemExt alignments —
    // the e-commerce enrichment of §6 treats them as the entities ER must
    // identify across the two tables.
    for i in 0..n_items {
        truth.duplicate_pairs.push((
            rock_data::GlobalTid::new(RelId(rels::ITEM), rock_data::TupleId(i as u32)),
            rock_data::GlobalTid::new(RelId(rels::ITEM_EXT), rock_data::TupleId(i as u32)),
        ));
    }

    // models
    let registry = Arc::new(ModelRegistry::new());
    registry.register_pair("Mfirm", Arc::new(NgramPairModel::with_threshold(0.78)));
    registry.register_pair("MER", Arc::new(NgramPairModel::with_threshold(0.6)));
    let rows: Vec<(Vec<Value>, Value)> = clean
        .relation(cl)
        .iter()
        .map(|t| {
            (
                vec![
                    t.get(AttrId(client::NAME)).clone(),
                    t.get(AttrId(client::CID)).clone(),
                ],
                t.get(AttrId(client::CITY)).clone(),
            )
        })
        .collect();
    registry.register_predictor(
        "Mccity",
        Arc::new(ValuePredictor::new(CorrelationModel::train(&rows), 0.3)),
    );
    let tier_pairs: Vec<(Vec<Value>, Vec<Value>)> = (0..40)
        .map(|i| {
            let a = TIERS[i % 2];
            let b = TIERS[(i % 2) + 1];
            (vec![Value::str(a)], vec![Value::str(b)])
        })
        .collect();
    let constraints = vec![
        CurrencyConstraint {
            attr_pos: 0,
            earlier: Value::str("bronze"),
            later: Value::str("silver"),
        },
        CurrencyConstraint {
            attr_pos: 0,
            earlier: Value::str("silver"),
            later: Value::str("gold"),
        },
    ];
    let cat_rows: Vec<(Vec<Value>, Value)> = clean
        .relation(it)
        .iter()
        .map(|t| {
            (
                vec![t.get(AttrId(item::NAME)).clone()],
                t.get(AttrId(item::CAT)).clone(),
            )
        })
        .collect();
    registry.register_predictor(
        "Mcat",
        Arc::new(ValuePredictor::new(CorrelationModel::train(&cat_rows), 0.3)),
    );
    registry.register_rank(
        "Mtier",
        Arc::new(RankModel::train_creator_critic(
            1,
            &tier_pairs,
            &constraints,
            2,
            cfg.seed,
        )),
    );

    let rules = curated_rules(RULES, &dirty, &registry);

    let task =
        |name: &str, prefixes: &[&str], scope: &[(u16, u16)], poly: Option<(u16, u16)>| -> Task {
            Task {
                name: name.into(),
                rule_names: rules
                    .iter()
                    .filter(|r| prefixes.iter().any(|p| r.name.starts_with(p)))
                    .map(|r| r.name.clone())
                    .collect(),
                scope: if scope.is_empty() {
                    None
                } else {
                    Some(Workload::scope_of(
                        &dirty,
                        &scope
                            .iter()
                            .map(|(r, a)| (RelId(*r), AttrId(*a)))
                            .collect::<Vec<_>>(),
                    ))
                },
                polynomial_target: poly.map(|(r, a)| (RelId(r), AttrId(a))),
            }
        };
    let tasks = vec![
        task(
            "CIN",
            &["cin_"],
            &[
                (rels::CLIENT, client::NAME),
                (rels::CLIENT, client::CITY),
                (rels::CLIENT, client::TIER),
            ],
            None,
        ),
        task("CCN", &["ccn_"], &[(rels::FIRM, firm::NAME)], None),
        task(
            "TPWT",
            &["tpwt_"],
            &[(rels::ORDER, order::PRICE_WOT)],
            Some((rels::ORDER, order::PRICE_WOT)),
        ),
        task(
            "SClean",
            &["cin_", "ccn_", "tpwt_", "er_", "mi_"],
            &[],
            Some((rels::ORDER, order::PRICE_WOT)),
        ),
    ];

    let trusted = Workload::pick_trusted(&dirty, &truth, cfg.trusted_per_rel);

    Workload {
        name: "Sales".into(),
        clean,
        dirty,
        truth,
        graph: Some(item_graph(n_items)),
        registry,
        rules,
        tasks,
        trusted,
        ml_hints: vec![
            MlHint {
                model: "Mfirm".into(),
                rel: "Firm".into(),
                attrs: vec!["name".into()],
            },
            MlHint {
                model: "MER".into(),
                rel: "Item".into(),
                attrs: vec!["name".into()],
            },
        ],
    }
}

fn item_graph(n: usize) -> Graph {
    let mut g = Graph::new("SalesKG");
    for (com, mfg, _) in namegen::COMMODITIES.iter().take(n) {
        let v = g.add_vertex(Value::str(*com), "Item");
        let m = g.add_vertex(Value::str(*mfg), "Manufactory");
        g.add_edge(v, "MadeBy", m);
    }
    let _ = n;
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::checks::{assert_curated_rules, class_sizes};

    fn wl() -> Workload {
        generate(&GenConfig {
            rows: 240,
            error_rate: 0.1,
            seed: 11,
            trusted_per_rel: 20,
        })
    }

    #[test]
    fn curated_rules_parse_and_resolve() {
        assert_curated_rules(RULES, &wl());
    }

    #[test]
    fn every_relation_has_its_intended_rows() {
        let cfg = GenConfig::default();
        let w = generate(&cfg);
        let sizes = |rel: u16| class_sizes(w.clean.relation(RelId(rel)));
        let clients = sizes(rels::CLIENT);
        assert_eq!(clients.len(), cfg.rows / 3);
        assert!(
            clients.iter().all(|n| (1..=TIERS.len()).contains(n)),
            "{clients:?}"
        );
        assert_eq!(sizes(rels::FIRM), vec![3; (cfg.rows / 6).max(4)]);
        assert_eq!(sizes(rels::ORDER), vec![3; cfg.rows / 2]);
        let n_items = namegen::COMMODITIES.len() * 5;
        assert_eq!(sizes(rels::ITEM), vec![1; n_items]);
        assert_eq!(sizes(rels::ITEM_EXT), vec![1; n_items]);
        // every client row carries its tier's timestamp
        let cl = w.clean.relation(RelId(rels::CLIENT));
        assert_eq!(cl.timestamps.len(), cl.len());
    }

    #[test]
    fn five_tables_and_invariant() {
        let w = wl();
        assert_eq!(w.dirty.len(), 5);
        for t in w.clean.relation(RelId(rels::ORDER)).iter() {
            let price = t.get(AttrId(order::PRICE)).as_f64().unwrap();
            let tax = t.get(AttrId(order::TAX)).as_f64().unwrap();
            let wot = t.get(AttrId(order::PRICE_WOT)).as_f64().unwrap();
            assert!((price - tax - wot).abs() < 0.011, "{price} {tax} {wot}");
        }
    }

    #[test]
    fn cross_table_er_rules_present() {
        let w = wl();
        let er = w.rules.get("er_item").unwrap();
        assert_ne!(er.rel_of(0), er.rel_of(1));
        let mi = w.rules.get("mi_mfg").unwrap();
        assert!(matches!(mi.consequence, rock_rees::Predicate::Attr { .. }));
        assert!(w.rules.iter().any(|r| r.uses_ml()));
    }

    #[test]
    fn tasks_wired() {
        let w = wl();
        assert_eq!(w.tasks.len(), 4);
        assert_eq!(
            w.task("TPWT").unwrap().polynomial_target,
            Some((RelId(rels::ORDER), AttrId(order::PRICE_WOT)))
        );
        let sclean = w.task("SClean").unwrap();
        assert_eq!(w.rules_for(sclean).len(), w.rules.len());
    }

    #[test]
    fn td_timestamps_present() {
        let w = wl();
        assert!(!w.clean.relation(RelId(rels::CLIENT)).timestamps.is_empty());
        assert!(!w.truth.stale.is_empty());
    }

    #[test]
    fn item_mfg_nulls_injected() {
        let w = wl();
        let nulls = w
            .truth
            .nulled
            .keys()
            .filter(|c| c.rel == RelId(rels::ITEM))
            .count();
        assert!(nulls > 0);
    }
}
