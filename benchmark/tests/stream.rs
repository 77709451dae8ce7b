//! Request streams are a pure function of the seed.

use pi2::Event;
use pi2_benchmark::stream::{schedule, ExploreSource, InteractSource, LiveSource, Req, Source};

fn cycles() -> Vec<Vec<Event>> {
    let pair = |ix: usize, a: usize, b: usize| {
        vec![
            Event::Select {
                interaction: ix,
                option: a,
            },
            Event::Select {
                interaction: ix,
                option: b,
            },
        ]
    };
    vec![
        [pair(0, 0, 1), pair(1, 0, 2), pair(2, 1, 2)].concat(),
        [pair(0, 1, 0), pair(3, 0, 1)].concat(),
    ]
}

fn streams(seed: u64) -> Vec<Vec<Req>> {
    let mut sources: Vec<Box<dyn Source>> = vec![
        Box::new(InteractSource::new(seed, cycles(), vec![1, 2])),
        Box::new(ExploreSource::new(seed, 1, 0, (0, 1219), &[700, 900])),
        Box::new(LiveSource::new(
            seed,
            1,
            0,
            vec![5, 50, 500, 1000],
            20,
            "big",
            "covid_big",
            pi2_workloads::big::covid_big(64),
        )),
    ];
    sources
        .iter_mut()
        .map(|s| schedule(s.as_mut(), 100.0, 200))
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_streams() {
    let (a, b) = (streams(7), streams(7));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.len(), 200);
        assert_eq!(x, y);
    }
}

#[test]
fn another_seed_gives_another_order() {
    let (a, b) = (streams(7), streams(8));
    for (x, y) in a.iter().zip(&b) {
        let bodies = |s: &[Req]| s.iter().map(|r| r.body.clone()).collect::<Vec<_>>();
        assert_ne!(bodies(x), bodies(y));
        assert_eq!(
            x.iter().map(|r| r.due_us).collect::<Vec<_>>(),
            y.iter().map(|r| r.due_us).collect::<Vec<_>>(),
            "the seed moves the requests, not the schedule"
        );
    }
}

#[test]
fn explore_never_repeats_a_state() {
    let mut source = ExploreSource::new(3, 1, 0, (0, 99), &[10]);
    let reqs = schedule(&mut source, 10.0, 1000);
    assert_eq!(reqs.len(), 99, "runs dry after the distinct states");
    let mut bodies: Vec<&str> = reqs.iter().map(|r| r.body.as_str()).collect();
    bodies.sort();
    bodies.dedup();
    assert_eq!(bodies.len(), 99);
}

#[test]
fn every_explore_window_covers_the_range_evenly() {
    for seed in 1..=5 {
        let mut source = ExploreSource::new(seed, 1, 0, (0, 1219), &[700, 900, 1100]);
        let reqs = schedule(&mut source, 10.0, 2000);
        assert_eq!(reqs.len(), 1217);
        let thresholds: Vec<i64> = reqs
            .iter()
            .map(|r| {
                let v = r.body.split("\"values\":[").nth(1).expect("values");
                v[..v.find(']').expect("]")].parse().expect("threshold")
            })
            .collect();
        // A nominal chunk of a 20 s run is about 33 reads.
        for window in thresholds.windows(33) {
            let mut fifths = [0; 5];
            for t in window {
                fifths[(*t as usize * 5 / 1220).min(4)] += 1;
            }
            assert!(
                fifths.iter().all(|n| (4..=9).contains(n)),
                "seed {seed}: {fifths:?}"
            );
        }
    }
}
